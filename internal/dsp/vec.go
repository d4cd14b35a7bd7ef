package dsp

// Clone returns a copy of x.
func Clone(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	return out
}
