package bitvec

// BV is a little-endian bitvector of circuit nodes: BV[0] is the least
// significant bit.
type BV []Node

// ConstBV returns a constant bitvector of the given width.
func ConstBV(width int, value int64) BV {
	bv := make(BV, width)
	for i := range bv {
		bv[i] = Const(value>>uint(i)&1 == 1)
	}
	return bv
}

// VarBV returns a bitvector of fresh variables.
func (b *Builder) VarBV(width int) BV {
	bv := make(BV, width)
	for i := range bv {
		bv[i] = b.Var()
	}
	return bv
}

// IsConst reports whether every bit is a constant, and if so its value.
func (bv BV) IsConst() (int64, bool) {
	var v int64
	for i, n := range bv {
		switch n {
		case True:
			v |= 1 << uint(i)
		case False:
		default:
			return 0, false
		}
	}
	return v, true
}

// Extend zero-extends (or truncates) to the given width.
func (bv BV) Extend(width int) BV {
	if len(bv) == width {
		return bv
	}
	out := make(BV, width)
	for i := range out {
		if i < len(bv) {
			out[i] = bv[i]
		} else {
			out[i] = False
		}
	}
	return out
}

func matchWidths(x, y BV) (BV, BV) {
	w := len(x)
	if len(y) > w {
		w = len(y)
	}
	return x.Extend(w), y.Extend(w)
}

// EqBV returns a node that is true iff the two vectors are equal
// (after zero extension to matching widths).
func (b *Builder) EqBV(x, y BV) Node {
	x, y = matchWidths(x, y)
	bits := make([]Node, len(x))
	for i := range x {
		bits[i] = b.Iff(x[i], y[i])
	}
	return b.AndAll(bits...)
}

// AddBV returns x + y (ripple carry, result width = max input width,
// wrapping on overflow like machine arithmetic).
func (b *Builder) AddBV(x, y BV) BV {
	x, y = matchWidths(x, y)
	out := make(BV, len(x))
	carry := False
	for i := range x {
		s := b.Xor(b.Xor(x[i], y[i]), carry)
		carry = b.Or(b.And(x[i], y[i]), b.And(carry, b.Xor(x[i], y[i])))
		out[i] = s
	}
	return out
}

// SubBV returns x - y (two's complement, wrapping).
func (b *Builder) SubBV(x, y BV) BV {
	x, y = matchWidths(x, y)
	out := make(BV, len(x))
	carry := True
	for i := range x {
		yn := y[i].Not()
		s := b.Xor(b.Xor(x[i], yn), carry)
		carry = b.Or(b.And(x[i], yn), b.And(carry, b.Xor(x[i], yn)))
		out[i] = s
	}
	return out
}

// MulBV returns x * y via shift-and-add (wrapping). Used rarely; the
// study set needs it only for array index scaling.
func (b *Builder) MulBV(x, y BV) BV {
	x, y = matchWidths(x, y)
	w := len(x)
	acc := ConstBV(w, 0)
	shifted := x
	for i := 0; i < w; i++ {
		term := make(BV, w)
		for j := range term {
			term[j] = b.And(shifted[j], y[i])
		}
		acc = b.AddBV(acc, term)
		// Shift x left by one.
		next := make(BV, w)
		copy(next[1:], shifted[:w-1])
		next[0] = False
		shifted = next
	}
	return acc
}

// LtBV returns a node true iff x < y as unsigned integers.
func (b *Builder) LtBV(x, y BV) Node {
	x, y = matchWidths(x, y)
	lt := False
	for i := range x { // from LSB to MSB; MSB comparison dominates
		bitLt := b.And(x[i].Not(), y[i])
		bitEq := b.Iff(x[i], y[i])
		lt = b.Or(bitLt, b.And(bitEq, lt))
	}
	return lt
}

// LeBV returns x <= y (unsigned).
func (b *Builder) LeBV(x, y BV) Node { return b.LtBV(y, x).Not() }

// LtSignedBV returns x < y as two's complement signed integers of
// equal (max) width.
func (b *Builder) LtSignedBV(x, y BV) Node {
	x, y = matchWidths(x, y)
	w := len(x)
	xs, ys := x[w-1], y[w-1]
	// x negative, y non-negative => true; equal signs => unsigned
	// comparison decides.
	diffSign := b.Xor(xs, ys)
	return b.Ite(diffSign, xs, b.LtBV(x, y))
}

// LeSignedBV returns x <= y (signed).
func (b *Builder) LeSignedBV(x, y BV) Node { return b.LtSignedBV(y, x).Not() }

// MuxBV returns c ? t : e, bitwise.
func (b *Builder) MuxBV(c Node, t, e BV) BV {
	t, e = matchWidths(t, e)
	out := make(BV, len(t))
	for i := range out {
		out[i] = b.Ite(c, t[i], e[i])
	}
	return out
}

// IsZero returns a node true iff every bit is zero.
func (b *Builder) IsZero(x BV) Node {
	bits := make([]Node, len(x))
	for i, n := range x {
		bits[i] = n.Not()
	}
	return b.AndAll(bits...)
}

// EvalBV evaluates the bitvector under the current model.
func (b *Builder) EvalBV(bv BV) int64 {
	var v int64
	for i, n := range bv {
		if b.Eval(n) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// WidthFor returns the number of bits needed to represent all values
// in [0, max].
func WidthFor(max int64) int {
	w := 1
	for int64(1)<<uint(w) <= max {
		w++
	}
	return w
}
