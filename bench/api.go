package main

import (
	"github.com/spritedht/sprite/internal/cache"
	"github.com/spritedht/sprite/internal/central"
	"github.com/spritedht/sprite/internal/chord"
	"github.com/spritedht/sprite/internal/chordid"
	"github.com/spritedht/sprite/internal/core"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/fanout"
	"github.com/spritedht/sprite/internal/index"
	"github.com/spritedht/sprite/internal/ir"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/simnet"
	"github.com/spritedht/sprite/internal/transport"
	"github.com/spritedht/sprite/internal/vtime"
)

// moduleAPI names every function and method of the repository's module that
// the harness calls, layer by layer. It is never read: it exists so that a
// refactor which renames or drops one of them stops this package compiling
// right here, with the whole list in view, instead of somewhere inside a
// workload. bench/README.md mirrors the list.
var moduleAPI = []any{
	// corpus, central, querygen: the collection and the centralized baseline.
	corpus.Synthesize,
	(*corpus.Corpus).Docs,
	(*corpus.Corpus).Doc,
	(*corpus.Document).Contains,
	central.New,
	(*central.System).Search,
	querygen.Generate,

	// simnet, transport, vtime: what the peers talk over and what time it is.
	simnet.New,
	simnet.WithLeanStats,
	simnet.WithClock,
	simnet.WithLatency,
	simnet.UniformLatency,
	(*simnet.Network).SetSleepLatency,
	(*simnet.Network).Stats,
	transport.New,
	transport.WithIdleTimeout,
	transport.WithCallTimeout,
	(*transport.Transport).LastError,
	(*transport.Transport).OpenConns,
	(*transport.Transport).Close,
	vtime.NewSim,
	(*vtime.Sim).Run,
	(*vtime.Sim).Now,
	(*vtime.Sim).Elapsed,
	(*vtime.Sim).Sleep,

	// chord: the ring.
	chord.NewRing,
	(*chord.Ring).AddNodes,
	(*chord.Ring).Build,
	(*chord.Ring).Owner,
	(*chord.Node).Lookup,
	(*chord.Node).Addr,
	chordid.HashKey,

	// core: SPRITE itself.
	core.NewNetwork,
	(*core.Network).Config,
	(*core.Network).InsertQueryCtx,
	(*core.Network).ShareCtx,
	(*core.Network).Unshare,
	(*core.Network).LearnAllCtx,
	(*core.Network).LearnDocCtx,
	(*core.Network).SearchCtx,
	(*core.Network).ProbeCtx,
	(*core.Network).Owner,
	(*core.Network).Peer,
	(*core.Network).Peers,
	(*core.Network).Documents,
	(*core.Network).IndexedTerms,
	(*core.Network).IndexStats,
	(*core.Network).PostingsCacheStats,
	(*core.Network).ResultCacheStats,
	(*core.Peer).Addr,
	(*core.Peer).Node,
	(*core.Peer).Index,
	(*core.Peer).HistoryLen,

	// index, ir, cache, fanout: the layers the probes call directly.
	index.NewInverted,
	(*index.Inverted).Add,
	(*index.Inverted).Remove,
	(*index.Inverted).Encoded,
	index.Stats.BytesPerPosting,
	index.Encoded.Len,
	index.Encoded.NumBlocks,
	index.Encoded.Cursor,
	index.Encoded.MarshalBinary,
	(*index.Encoded).UnmarshalBinary,
	(*index.Cursor).NextBytes,
	ir.QueryWeight,
	ir.CollectStream,
	ir.NewAccumulator,
	(*ir.Accumulator).Reset,
	(*ir.Accumulator).AccumulateAll,
	(*ir.Accumulator).RankedTop,
	ir.RankedList.Docs,
	ir.Evaluate,
	ir.MeanMetrics,
	ir.Ratio,
	cache.New[int],
	(*cache.Cache[int]).Put,
	(*cache.Cache[int]).Get,
	cache.Stats.HitRate,
	fanout.New,
	fanout.Map[struct{}],
}
