// Package cluster is the deterministic multi-node serving layer
// (DESIGN.md §15). A seeded consistent-hash ring places benchmarks — and
// MISR signature slots within a hot benchmark — across N mithrad nodes
// that share one cluster-spec file. The placement function is pure: the
// same spec resolves to the same owner on every node and every client,
// so a request's decision point is a function of (spec, bench, id, input)
// and never of which endpoint happened to receive the frame. Mis-routed
// frames are forwarded between nodes over the existing wire protocol, so
// correctness never depends on client freshness; routing only moves work.
//
// Online fold-ins replicate as state: after each fold-in a benchmark's
// home node pushes the repaired table to every peer, which installs it
// through the monotone Registry.Install path when its version is newer;
// a restarted or partitioned replica fetches the home node's current
// table with one catch-up request. The cluster-
// wide acceptance gate is the determinism contract extended across
// machines: the merge of all nodes' decision logs, ordered by request ID,
// is byte-identical to a single-node replay of the same trace.
package cluster

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// NodeSpec names one mithrad process and the address its wire listener
// binds. Names are cluster-wide identities: ring points, fault-site
// scopes, and journal notes all key on the name, never the address, so
// an address change (new port after restart) does not move placement.
type NodeSpec struct {
	Name string
	Addr string
}

// Spec is the parsed cluster-spec file every node and every cluster-aware
// client loads. All placement inputs live here — ring seed, virtual-node
// count, sampling parameters, node set, and per-benchmark slot splits —
// so two processes that agree on the spec bytes agree on the placement of
// every request.
type Spec struct {
	// Seed keys the consistent-hash ring. Changing it reshuffles every
	// placement, so it is part of the spec rather than a per-node flag.
	Seed uint64
	// VNodes is the number of virtual nodes (ring points) per node.
	VNodes int
	// SampleRate and SampleSeed mirror mithrad's -sample-rate and
	// -sample-seed. They live in the spec because routing must know which
	// request IDs are error-sampled: sampled invocations always route to
	// the benchmark's home node so the observation stream — and therefore
	// the fold-in and guarantee-note sequence — is byte-identical to a
	// single-node run. Nodes started with -cluster-spec take sampling
	// parameters from the spec, not from their flags.
	SampleRate float64
	SampleSeed uint64
	// Nodes is the node set, sorted by name (String renders it sorted and
	// ParseSpec re-sorts, so the order never carries information).
	Nodes []NodeSpec
	// Splits maps a hot benchmark to its slot count: inputs hash (FNV-1a
	// over their IEEE-754 bits, an MISR-style signature) into one of N
	// slots and each slot is placed on the ring independently, spreading
	// one benchmark's unsampled traffic across nodes.
	Splits map[string]int
}

// defaultVNodes balances placement evenness against ring size; 64 points
// per node keeps the max/min load ratio under ~1.3 for small clusters.
const defaultVNodes = 64

// ParseSpecFile reads and parses a cluster-spec file.
func ParseSpecFile(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	s, err := ParseSpec(string(b))
	if err != nil {
		return nil, fmt.Errorf("cluster: spec %s: %w", path, err)
	}
	return s, nil
}

// ParseSpec parses the line-oriented spec grammar:
//
//	# comment
//	seed 42
//	vnodes 64
//	sample-rate 0.05
//	sample-seed 42
//	node n0 127.0.0.1:7501
//	split fft 8
//
// Unknown directives, duplicate node names or addresses, and duplicate
// splits are errors: a spec that two processes parse differently is a
// placement bug, so the grammar rejects anything it does not understand.
func ParseSpec(text string) (*Spec, error) {
	s := &Spec{Seed: 1, VNodes: defaultVNodes, SampleSeed: 42, Splits: map[string]int{}}
	seenAddr := map[string]bool{}
	seenName := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(format string, args ...any) error {
			return fmt.Errorf("line %d: %s: %s", ln+1, fmt.Sprintf(format, args...), line)
		}
		switch f[0] {
		case "seed", "sample-seed":
			if len(f) != 2 {
				return nil, bad("%s takes one value", f[0])
			}
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, bad("bad %s", f[0])
			}
			if f[0] == "seed" {
				s.Seed = v
			} else {
				s.SampleSeed = v
			}
		case "vnodes":
			if len(f) != 2 {
				return nil, bad("vnodes takes one value")
			}
			v, err := strconv.Atoi(f[1])
			if err != nil || v < 1 || v > 4096 {
				return nil, bad("vnodes must be in [1,4096]")
			}
			s.VNodes = v
		case "sample-rate":
			if len(f) != 2 {
				return nil, bad("sample-rate takes one value")
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil || v < 0 || v > 1 {
				return nil, bad("sample-rate must be in [0,1]")
			}
			s.SampleRate = v
		case "node":
			if len(f) != 3 {
				return nil, bad("node takes a name and an address")
			}
			name, addr := f[1], f[2]
			if strings.ContainsAny(name, ",|\x00") {
				return nil, bad("node name must not contain ',', '|', or NUL")
			}
			if seenName[name] {
				return nil, bad("duplicate node name %q", name)
			}
			if seenAddr[addr] {
				return nil, bad("duplicate node address %q", addr)
			}
			seenName[name], seenAddr[addr] = true, true
			s.Nodes = append(s.Nodes, NodeSpec{Name: name, Addr: addr})
		case "split":
			if len(f) != 3 {
				return nil, bad("split takes a benchmark and a slot count")
			}
			v, err := strconv.Atoi(f[2])
			if err != nil || v < 2 || v > 65536 {
				return nil, bad("split slots must be in [2,65536]")
			}
			if _, dup := s.Splits[f[1]]; dup {
				return nil, bad("duplicate split for %q", f[1])
			}
			s.Splits[f[1]] = v
		default:
			return nil, bad("unknown directive %q", f[0])
		}
	}
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("spec declares no nodes")
	}
	sort.Slice(s.Nodes, func(i, j int) bool { return s.Nodes[i].Name < s.Nodes[j].Name })
	return s, nil
}

// String renders the canonical spec: fixed directive order, nodes sorted
// by name, splits sorted by benchmark. ParseSpec(s.String()) reproduces s
// exactly, so the canonical form is safe to write back to disk and to
// hash for spec-agreement checks.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	fmt.Fprintf(&b, "vnodes %d\n", s.VNodes)
	fmt.Fprintf(&b, "sample-rate %s\n", strconv.FormatFloat(s.SampleRate, 'g', -1, 64))
	fmt.Fprintf(&b, "sample-seed %d\n", s.SampleSeed)
	for _, n := range s.Nodes {
		fmt.Fprintf(&b, "node %s %s\n", n.Name, n.Addr)
	}
	benches := make([]string, 0, len(s.Splits))
	for bench := range s.Splits {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		fmt.Fprintf(&b, "split %s %d\n", bench, s.Splits[bench])
	}
	return b.String()
}

// Node returns the spec entry for name, or an error naming the known set.
func (s *Spec) Node(name string) (NodeSpec, error) {
	for _, n := range s.Nodes {
		if n.Name == name {
			return n, nil
		}
	}
	names := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		names[i] = n.Name
	}
	return NodeSpec{}, fmt.Errorf("cluster: node %q not in spec (have %s)", name, strings.Join(names, ", "))
}

// Names returns the node names in sorted order.
func (s *Spec) Names() []string {
	names := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		names[i] = n.Name
	}
	return names
}

// Addr returns the wire address of node name ("" if unknown).
func (s *Spec) Addr(name string) string {
	for _, n := range s.Nodes {
		if n.Name == name {
			return n.Addr
		}
	}
	return ""
}

// PairKey is the canonical unordered node-pair key used to scope
// conn.partition fault injectors: both ends of a partitioned link derive
// the same seeded stream, so a partition plan replays identically no
// matter which side checks first.
func PairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}
