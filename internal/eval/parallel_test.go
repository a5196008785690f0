package eval

import (
	"testing"
	"time"
)

// TestRunParallelInvariants checks the fan-out engine's determinism contract
// at the harness level: two deployments that differ only in Parallelism (1
// and 4), measured with a real slept link delay, must produce byte-identical
// rankings — hence identical quality — and identical transport call and byte
// counts. Latency ordering is deliberately NOT asserted: wall-clock
// comparisons are scheduler-dependent and belong in the benchmark.
func TestRunParallelInvariants(t *testing.T) {
	cfg := tiny()
	cfg.LinkDelay = 200 * time.Microsecond
	cfg.Core.Parallelism = 1
	seq, _, seqCalls, seqBytes := trainAndRender(t, cfg)
	cfg.Core.Parallelism = 4
	par, _, parCalls, parBytes := trainAndRender(t, cfg)
	if seq == "" || seq != par {
		t.Errorf("rankings moved with parallelism:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if seqCalls == 0 || seqCalls != parCalls || seqBytes != parBytes {
		t.Errorf("traffic moved with parallelism: seq %d/%d par %d/%d", seqCalls, seqBytes, parCalls, parBytes)
	}
}
