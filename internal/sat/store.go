package sat

// This file implements the solver's clause store, after MiniSat's
// clause allocator (Eén & Sörensson, "An Extensible SAT-solver",
// SAT 2003): every learnt clause, and every problem clause of three or
// more literals, lives in one flat region of 32-bit words and is
// addressed by a cref, the offset of its header. Watch lists, reasons
// and the clause lists therefore hold plain integers, and the garbage
// collector never scans the solver's clause database.
//
// Problem clauses of two literals, most of a Tseitin encoding, stay out
// of the region (as Glucose's binary watches and CaDiCaL's implicit
// binaries do): they are literal pairs in the solver's bins slice, and
// their cref is crefBin|i for pair i. Such a clause needs no header,
// since a problem clause has no learnt flag, tier, LBD or activity, and
// propagation never reads it: the blocker of its watcher is its other
// literal (see propagate). Learnt binaries stay in the region, where
// reduction, tiers and activities treat them as every other learnt.
//
// A clause is a header of hdrWords words followed by its literals:
//
//	[0] the number of literals
//	[1] flags (learnt, used, deleted, relocated, two tier bits) | LBD<<lbdShift
//	[2] low and [3] high word of the float64 activity
//
// The region is typed []Lit so that a clause's literals are a plain
// subslice; the header words hold their values' bit patterns.
//
// Clauses leaving the database are marked deleted and their words
// counted as wasted. When the waste passes a fifth of the region,
// garbageCollect copies the live clauses into a fresh region, in the
// order of the clause lists, and rewrites every cref held elsewhere.
// It reorders no list and no watcher, so the search is the same with
// or without a collection.

import "math"

// cref is a clause reference: the offset of a clause's header in the
// solver's clause region, below crefBin, or crefBin|i for the i-th
// problem binary.
type cref uint32

// crefUndef is the null reference (no reason, no conflict).
const crefUndef cref = math.MaxUint32

// crefBin tags the reference of a problem binary. The region stops
// short of 2^31 words, so no region reference carries the tag, and the
// pairs stop short of the order theory's sentinel (crefOrder), so no
// binary reference equals it or crefUndef.
const crefBin cref = 1 << 31

// inRegion reports whether c names a clause of the region: neither a
// problem binary nor one of the sentinels.
func inRegion(c cref) bool { return c < crefBin }

// Header layout (see the file comment).
const (
	hdrSize  = 0
	hdrMeta  = 1
	hdrActLo = 2
	hdrActHi = 3
	hdrWords = 4

	flagLearnt  = 1 << 0
	flagUsed    = 1 << 1
	flagDeleted = 1 << 2
	flagReloc   = 1 << 3
	tierShift   = 4
	tierMask    = 3 << tierShift
	lbdShift    = 6
)

// minRegion is the first capacity of a region in words, so solvers of
// tiny formulas stay tiny.
const minRegion = 256

// region is the flat clause store. wasted counts the words of
// deleted clauses.
type region struct {
	mem    []Lit
	wasted int
}

// newRegion returns an empty region for a database of the given number
// of words, with a quarter more room so the first learnt clauses do
// not copy it.
func newRegion(words int) region {
	return region{mem: make([]Lit, 0, words+words/4+minRegion)}
}

func (r *region) size(c cref) int { return int(r.mem[c+hdrSize]) }

// lits returns the clause's literals as a subslice of the region,
// capped so an append cannot spill into the next clause. It is valid
// until the next alloc or garbageCollect.
func (r *region) lits(c cref) []Lit {
	start := int(c) + hdrWords
	end := start + int(r.mem[c+hdrSize])
	return r.mem[start:end:end]
}

func (r *region) meta(c cref) uint32 { return uint32(r.mem[c+hdrMeta]) }

func (r *region) setMeta(c cref, m uint32) { r.mem[c+hdrMeta] = Lit(m) }

func (r *region) flag(c cref, f uint32) bool { return r.meta(c)&f != 0 }

func (r *region) setFlag(c cref, f uint32, on bool) {
	if on {
		r.setMeta(c, r.meta(c)|f)
	} else {
		r.setMeta(c, r.meta(c)&^f)
	}
}

func (r *region) learnt(c cref) bool  { return r.flag(c, flagLearnt) }
func (r *region) deleted(c cref) bool { return r.flag(c, flagDeleted) }
func (r *region) used(c cref) bool    { return r.flag(c, flagUsed) }

func (r *region) setUsed(c cref, on bool) { r.setFlag(c, flagUsed, on) }

func (r *region) tier(c cref) int8 { return int8(r.meta(c) & tierMask >> tierShift) }

func (r *region) setTier(c cref, t int8) {
	r.setMeta(c, r.meta(c)&^tierMask|uint32(t)<<tierShift)
}

func (r *region) lbd(c cref) int { return int(r.meta(c) >> lbdShift) }

func (r *region) setLBD(c cref, lbd int) {
	r.setMeta(c, r.meta(c)&(1<<lbdShift-1)|uint32(lbd)<<lbdShift)
}

func (r *region) activity(c cref) float64 {
	return math.Float64frombits(uint64(uint32(r.mem[c+hdrActLo])) | uint64(uint32(r.mem[c+hdrActHi]))<<32)
}

func (r *region) setActivity(c cref, a float64) {
	bits := math.Float64bits(a)
	r.mem[c+hdrActLo] = Lit(uint32(bits))
	r.mem[c+hdrActHi] = Lit(uint32(bits >> 32))
}

// alloc appends a clause holding a copy of lits, with zero activity,
// LBD and tier, and returns its reference. The region doubles when
// full.
func (r *region) alloc(lits []Lit, learnt bool) cref {
	c := len(r.mem)
	n := hdrWords + len(lits)
	if uint64(c+n) > uint64(crefBin) {
		panic("sat: clause region exceeds 2^31 words")
	}
	if c+n > cap(r.mem) {
		r.mem = growCap(r.mem, max(2*cap(r.mem), c+n, minRegion))
	}
	r.mem = r.mem[:c+n]
	var meta uint32
	if learnt {
		meta = flagLearnt
	}
	r.mem[c+hdrSize] = Lit(len(lits))
	r.mem[c+hdrMeta] = Lit(meta)
	r.mem[c+hdrActLo], r.mem[c+hdrActHi] = 0, 0
	copy(r.mem[c+hdrWords:], lits)
	return cref(c)
}

// free marks a clause deleted and counts its words as wasted. The
// clause stays readable until the next garbageCollect.
func (r *region) free(c cref) {
	r.setFlag(c, flagDeleted, true)
	r.wasted += hdrWords + r.size(c)
}

// reloc copies clause c into to, leaves a forwarding reference in its
// old header, and returns the new reference.
func (r *region) reloc(c cref, to *region) cref {
	n := hdrWords + r.size(c)
	nc := cref(len(to.mem))
	to.mem = append(to.mem, r.mem[c:int(c)+n]...)
	r.setFlag(c, flagReloc, true)
	r.mem[c+hdrActLo] = Lit(nc)
	return nc
}

// forward returns the new reference of a relocated clause.
func (r *region) forward(c cref) cref { return cref(r.mem[c+hdrActLo]) }

// clauseLits returns the literals of a problem or learnt clause: a
// subslice of the region or of the binary pairs, valid until the next
// clause is stored or the region is collected.
func (s *Solver) clauseLits(c cref) []Lit {
	if inRegion(c) {
		return s.ca.lits(c)
	}
	i := 2 * int(c&^crefBin)
	return s.bins[i : i+2 : i+2]
}

// addBin stores a problem binary and returns its reference. The pairs
// double when full, like the region.
func (s *Solver) addBin(a, b Lit) cref {
	i := cref(len(s.bins) / 2)
	if crefBin|i >= crefOrder {
		panic("sat: more than 2^31-2 binary clauses")
	}
	if len(s.bins)+2 > cap(s.bins) {
		s.bins = growCap(s.bins, max(2*len(s.bins), minRegion))
	}
	s.bins = append(s.bins, a, b)
	return crefBin | i
}

// garbageCollect moves every listed clause of the region into a fresh
// one, problem clauses first, then learnts, each in list order, and
// rewrites the references held by the watch lists and reasons. A
// reason that names an unlisted clause becomes crefUndef: only
// root-level assignments keep such reasons, and no live clause may
// compare equal to them. The problem binaries, like the order theory's
// sentinel reason, are not in the region and keep their references.
func (s *Solver) garbageCollect() {
	from := &s.ca
	to := newRegion(len(from.mem) - from.wasted)
	for i, c := range s.clauses {
		if inRegion(c) {
			s.clauses[i] = from.reloc(c, &to)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = from.reloc(c, &to)
	}
	for _, ws := range s.watches {
		for i := range ws {
			if inRegion(ws[i].c) {
				ws[i].c = from.forward(ws[i].c)
			}
		}
	}
	for v, c := range s.reasons {
		if !inRegion(c) {
			continue
		}
		if from.flag(c, flagReloc) {
			s.reasons[v] = from.forward(c)
		} else {
			s.reasons[v] = crefUndef
		}
	}
	s.ca = to
}
