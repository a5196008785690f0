package core

import "github.com/spritedht/sprite/internal/simnet"

// unhintedPolls makes learnDoc route its polls the way it did before they
// carried an owner hint — a walk of the ring for every term — until the
// returned function is called. Tests that demand hinted learning learn the
// same things run their oracle under it; no test may run beside one that has
// it set.
func unhintedPolls() (restore func()) {
	hinted := pollHint
	pollHint = func(simnet.Addr) simnet.Addr { return "" }
	return func() { pollHint = hinted }
}
