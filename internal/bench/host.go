package bench

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// Host records the machine and build a BENCH file was measured on.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// hostInfo describes the running process's machine and build.
func hostInfo() Host {
	return Host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     vcsCommit(),
	}
}

// vcsCommit returns the VCS revision of the build, suffixed "+dirty"
// when the tree had uncommitted changes. A binary built by go build
// carries the revision; go run binaries do not, so the working
// directory's git checkout answers instead. "unknown" when neither
// can.
func vcsCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		rev += "+dirty"
	}
	return rev
}
