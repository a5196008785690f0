package index

// Rebuilds exposes, to the package's external tests, how many mutations went
// through decode → rebuild instead of the encoded splice.
func (ix *Inverted) Rebuilds() int { return ix.rebuilds }
