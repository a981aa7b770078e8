// Package faultsim injects deterministic network faults into the in-memory
// transport, so the study engine can be exercised against the operating
// regime the paper's instrumented clients actually faced: dead peers,
// refused connections, truncated and corrupted transfers, slow-loris
// responders, and population churn.
//
// Determinism is the organizing constraint. The study's headline guarantee
// — same seed, same configuration, byte-identical records and spans for
// any worker count — must survive fault injection, so no fault decision may
// depend on goroutine scheduling. Two rules follow:
//
//   - Data plane only. Faults apply to the measurement client's transfer
//     connections (the Injector wraps the transport used for downloads).
//     The overlay control plane (handshakes, query flooding, search
//     routing) runs on the raw transport: a dropped query hit would change
//     the response population nondeterministically, while a failed
//     download is re-tried or degraded into a counted fetch_failed record.
//     Overlay-level failure is modeled by churn instead, which the study
//     engine applies behind a pipeline barrier at virtual-day boundaries.
//
//   - Keyed decisions, not shared streams. Every fault decision is a pure
//     function of (plan seed, fetch key, attempt number), derived through
//     an FNV-seeded PCG stream. Concurrent workers fetching different
//     keys cannot perturb each other's draws, so the set of injected
//     faults — and therefore every retry outcome and record verdict — is
//     identical across runs and worker counts.
package faultsim

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// FaultPlan configures the fault mix for one network. Probabilities are
// per download attempt and independent; latency bounds are wall-clock
// (they shape real socket activity, never trace timestamps).
type FaultPlan struct {
	// Name labels the plan in logs and metrics ("" for ad-hoc plans).
	Name string `json:"name,omitempty"`
	// DialRefuse is the probability a dial attempt is refused outright —
	// the dead-peer case that dominated the paper's month on live
	// networks.
	DialRefuse float64 `json:"dial_refuse"`
	// Reset is the probability the connection is reset before any
	// response byte arrives (peer departs between accept and serve).
	Reset float64 `json:"reset"`
	// Truncate is the probability the transfer is cut mid-body: a prefix
	// is delivered, then the connection dies.
	Truncate float64 `json:"truncate"`
	// Corrupt is the probability response bytes are flipped in flight.
	// Hardened clients detect this via content hashes and re-fetch.
	Corrupt float64 `json:"corrupt"`
	// SlowLoris is the probability the peer accepts the connection and
	// then stalls, feeding no bytes until the client's attempt deadline.
	SlowLoris float64 `json:"slow_loris"`
	// LatencyMinMS/LatencyMaxMS bound an injected per-connection delay
	// before the first response byte, drawn uniformly (0/0 disables).
	LatencyMinMS int `json:"latency_min_ms"`
	LatencyMaxMS int `json:"latency_max_ms"`
	// ChurnPerDay is the fraction of each network's honest population
	// replaced at every virtual-day boundary. The study engine applies it
	// behind a pipeline barrier, so churn is deterministic.
	ChurnPerDay float64 `json:"churn_per_day"`
}

// Active reports whether the plan injects anything at all.
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return p.DialRefuse > 0 || p.Reset > 0 || p.Truncate > 0 || p.Corrupt > 0 ||
		p.SlowLoris > 0 || p.LatencyMaxMS > 0 || p.ChurnPerDay > 0
}

// Validate checks the plan's parameters.
func (p *FaultPlan) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"dial_refuse", p.DialRefuse}, {"reset", p.Reset}, {"truncate", p.Truncate},
		{"corrupt", p.Corrupt}, {"slow_loris", p.SlowLoris}, {"churn_per_day", p.ChurnPerDay},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faultsim: %s = %v out of [0,1]", pr.name, pr.v)
		}
	}
	if p.LatencyMinMS < 0 || p.LatencyMaxMS < 0 {
		return fmt.Errorf("faultsim: negative latency bound")
	}
	if p.LatencyMinMS > p.LatencyMaxMS {
		return fmt.Errorf("faultsim: latency_min_ms %d > latency_max_ms %d", p.LatencyMinMS, p.LatencyMaxMS)
	}
	return nil
}

// Profiles are the named fault plans -faults accepts. "canonical" is the
// reference hostile-network regime the golden traces and headline-share
// tolerances are pinned against.
var Profiles = map[string]FaultPlan{
	"off": {Name: "off"},
	"canonical": {
		Name:       "canonical",
		DialRefuse: 0.05, Reset: 0.02, Truncate: 0.02, Corrupt: 0.01, SlowLoris: 0.01,
		LatencyMinMS: 0, LatencyMaxMS: 2,
		ChurnPerDay: 0.10,
	},
	"lossy": {
		Name:       "lossy",
		DialRefuse: 0.30, Reset: 0.10,
	},
	"truncating": {
		Name:     "truncating",
		Truncate: 0.25, Corrupt: 0.05,
	},
	"churning": {
		Name:       "churning",
		DialRefuse: 0.05, ChurnPerDay: 0.5,
	},
	"slowloris": {
		Name:      "slowloris",
		SlowLoris: 0.08, LatencyMinMS: 0, LatencyMaxMS: 1,
	},
}

// ProfileNames returns the sorted names Load accepts.
func ProfileNames() []string {
	out := make([]string, 0, len(Profiles))
	for name := range Profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load resolves a -faults argument: a profile name, or a path to a JSON
// FaultPlan. "off" and "" return nil (no injection).
func Load(nameOrPath string) (*FaultPlan, error) {
	if nameOrPath == "" || nameOrPath == "off" {
		return nil, nil
	}
	if p, ok := Profiles[nameOrPath]; ok {
		plan := p
		return &plan, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("faultsim: %q is neither a profile (%s) nor a readable plan file: %w",
			nameOrPath, strings.Join(ProfileNames(), ", "), err)
	}
	var plan FaultPlan
	if err := json.Unmarshal(data, &plan); err != nil {
		return nil, fmt.Errorf("faultsim: parsing plan %s: %w", nameOrPath, err)
	}
	if plan.Name == "" {
		plan.Name = nameOrPath
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &plan, nil
}
