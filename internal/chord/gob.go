package chord

import "github.com/spritedht/sprite/internal/wire"

// The overlay's message payloads are registered for gob so that the same
// protocol runs unchanged over internal/nettransport's TCP frames. The
// in-process simulator passes payloads by value and never touches these
// registrations. Registration goes through internal/wire so it is idempotent
// across packages.
func init() {
	wire.Register(
		nextHopReq{},
		nextHopResp{},
		stateResp{},
		Ref{},
		routed{},
		notOwner{},
	)
}
