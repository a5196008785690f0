package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// environment travels with every result record, so a number can always be
// traced back to the build, the machine and the inputs that produced it.
type environment struct {
	GitRevision string  `json:"git_revision"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	GOGC        string  `json:"gogc"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Scale       float64 `json:"scale"`
	Peers       int     `json:"peers"`
	Docs        int     `json:"docs"`
	Queries     int     `json:"queries"`
	Writes      int     `json:"writes"`
	OpsHash     string  `json:"ops_sha256"`
	Clients     int     `json:"clients"`
	Parallelism int     `json:"parallelism"`
	Clock       string  `json:"clock"`
	Transport   string  `json:"transport"`
}

func newEnvironment(s spec, o options, ops []op) environment {
	e := environment{
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		GOGC:        "100 (default)",
		Seed:        o.Seed,
		Seconds:     o.Seconds,
		Scale:       o.Scale,
		Peers:       s.Peers,
		Docs:        s.Docs,
		Clients:     s.Clients,
		Parallelism: s.Parallelism,
		Clock:       "wall",
		Transport:   "simnet (in-process)",
	}
	if v := os.Getenv("GOGC"); v != "" {
		e.GOGC = v
	}
	if s.Virtual {
		e.Clock = "virtual (vtime.Sim), one-way link delay uniform 0.5-1.5 ms"
	}
	if s.TCP {
		e.Transport = "internal/transport over loopback sockets (pooled, binary codec)"
	}
	for _, op := range ops {
		if op.kind == opQuery {
			e.Queries++
		} else {
			e.Writes++
		}
	}
	sum := sha256.Sum256(opsBytes(ops))
	e.OpsHash = hex.EncodeToString(sum[:8])
	return e
}

// gitRevision names the build by the VCS stamp the toolchain put in the
// binary; "unknown" when it was built outside a repository, as in the
// driver's checkouts.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

//go:embed expected.json
var expectedJSON []byte

// expectedHash returns the committed rank hash for this workload when the
// run's inputs are the ones it was recorded with (seed 1, default length and
// scale); other runs are checked by the invariants alone. A file that does
// not parse is an error, never a silently open gate.
func expectedHash(workload string, o options) (string, bool, error) {
	var exp struct {
		Seed     int64             `json:"seed"`
		Seconds  int               `json:"seconds"`
		Scale    float64           `json:"scale"`
		RankHash map[string]string `json:"rank_hash"`
	}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return "", false, fmt.Errorf("expected.json: %w", err)
	}
	if o.Seed != exp.Seed || o.Seconds != exp.Seconds || o.Scale != exp.Scale {
		return "", false, nil
	}
	h, ok := exp.RankHash[workload]
	if !ok {
		return "", false, fmt.Errorf("expected.json: no rank_hash for workload %q", workload)
	}
	return h, true, nil
}
