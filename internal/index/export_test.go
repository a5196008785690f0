package index

// Rebuilds exposes, to the package's external tests, how many mutations went
// through decode → rebuild instead of the encoded splice.
func (ix *Inverted) Rebuilds() int { return ix.rebuilds }

// nextGeneral is NextBytes with the one-check fast path skipped: every
// posting goes through the general decoder. The decoder tests hold the fast
// path to it.
func (c *Cursor) nextGeneral() (doc []byte, freq, docLen int, ok bool) {
	if c.left == 0 && !c.openBlock() {
		return nil, 0, 0, false
	}
	return c.decode()
}
