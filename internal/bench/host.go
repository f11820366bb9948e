package bench

// This file holds what the BENCH reports share: the host record and
// the ratio and median of their timings.

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
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

// speedup is base over improved, 1 when improved took no time.
func speedup(base, improved float64) float64 {
	if improved <= 0 {
		return 1
	}
	return base / improved
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
