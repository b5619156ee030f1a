// Package rules represents MPICH-style collective algorithm selection
// files: the JSON artifact ACCLAiM generates after training (Section V,
// "Configuration File Generation"). A file holds one rule table per
// collective; a table is a complete decision list nested by communicator
// node count, processes per node, and message size. The package
// validates completeness (every possible input must resolve), prunes
// redundant rules to minimise selection delay, and answers selection
// queries the way the MPI library would at collective-call time.
package rules

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Unbounded marks a threshold that matches any value (the mandatory
// final catch-all at each nesting level).
const Unbounded = math.MaxInt64

// MsgRule selects Alg for message sizes <= MaxMsg (after earlier rules
// declined).
type MsgRule struct {
	MaxMsg int64  `json:"max_msg"`
	Alg    string `json:"algorithm"`
}

// PPNBucket holds the message-size rules for ppn <= MaxPPN.
type PPNBucket struct {
	MaxPPN int64     `json:"max_ppn"`
	Rules  []MsgRule `json:"rules"`
}

// NodeBucket holds the ppn buckets for node counts <= MaxNodes.
type NodeBucket struct {
	MaxNodes int64       `json:"max_nodes"`
	PPNs     []PPNBucket `json:"ppn_buckets"`
}

// Table is the complete decision list for one collective.
type Table struct {
	Collective string       `json:"collective"`
	Buckets    []NodeBucket `json:"node_buckets"`
}

// File is a full selection configuration, the unit MPICH is pointed at
// via an environment variable.
type File struct {
	Version int               `json:"version"`
	Machine string            `json:"machine,omitempty"`
	Comment string            `json:"comment,omitempty"`
	Tables  map[string]*Table `json:"tables"`
}

// NewFile returns an empty selection file.
func NewFile(machine string) *File {
	return &File{Version: 1, Machine: machine, Tables: make(map[string]*Table)}
}

// Select resolves a query against the table. It returns an error only if
// the table is incomplete for the query, which Validate prevents.
func (t *Table) Select(nodes, ppn, msg int) (string, error) {
	nb := searchNode(t.Buckets, int64(nodes))
	if nb == nil {
		return "", fmt.Errorf("rules: %s: no node bucket for %d nodes", t.Collective, nodes)
	}
	pb := searchPPN(nb.PPNs, int64(ppn))
	if pb == nil {
		return "", fmt.Errorf("rules: %s: no ppn bucket for ppn %d", t.Collective, ppn)
	}
	i := sort.Search(len(pb.Rules), func(i int) bool { return pb.Rules[i].MaxMsg >= int64(msg) })
	if i == len(pb.Rules) {
		return "", fmt.Errorf("rules: %s: no rule for message size %d", t.Collective, msg)
	}
	return pb.Rules[i].Alg, nil
}

func searchNode(bs []NodeBucket, v int64) *NodeBucket {
	i := sort.Search(len(bs), func(i int) bool { return bs[i].MaxNodes >= v })
	if i == len(bs) {
		return nil
	}
	return &bs[i]
}

func searchPPN(bs []PPNBucket, v int64) *PPNBucket {
	i := sort.Search(len(bs), func(i int) bool { return bs[i].MaxPPN >= v })
	if i == len(bs) {
		return nil
	}
	return &bs[i]
}

// Validate checks the paper's completeness requirement: thresholds
// strictly ascending at every level, a final Unbounded catch-all at
// every level, and non-empty rule lists with named algorithms.
func (t *Table) Validate() error {
	if t.Collective == "" {
		return fmt.Errorf("rules: table without collective name")
	}
	if len(t.Buckets) == 0 {
		return fmt.Errorf("rules: %s: no node buckets", t.Collective)
	}
	var prevN int64 = -1
	for _, nb := range t.Buckets {
		if nb.MaxNodes <= prevN {
			return fmt.Errorf("rules: %s: node thresholds not ascending at %d", t.Collective, nb.MaxNodes)
		}
		prevN = nb.MaxNodes
		if len(nb.PPNs) == 0 {
			return fmt.Errorf("rules: %s: node bucket %d has no ppn buckets", t.Collective, nb.MaxNodes)
		}
		var prevP int64 = -1
		for _, pb := range nb.PPNs {
			if pb.MaxPPN <= prevP {
				return fmt.Errorf("rules: %s: ppn thresholds not ascending at %d", t.Collective, pb.MaxPPN)
			}
			prevP = pb.MaxPPN
			if len(pb.Rules) == 0 {
				return fmt.Errorf("rules: %s: ppn bucket %d has no rules", t.Collective, pb.MaxPPN)
			}
			var prevM int64 = -1
			for _, r := range pb.Rules {
				if r.MaxMsg <= prevM {
					return fmt.Errorf("rules: %s: msg thresholds not ascending at %d", t.Collective, r.MaxMsg)
				}
				prevM = r.MaxMsg
				if r.Alg == "" {
					return fmt.Errorf("rules: %s: rule without algorithm", t.Collective)
				}
			}
			if pb.Rules[len(pb.Rules)-1].MaxMsg != Unbounded {
				return fmt.Errorf("rules: %s: msg rules not complete (missing catch-all)", t.Collective)
			}
		}
		if nb.PPNs[len(nb.PPNs)-1].MaxPPN != Unbounded {
			return fmt.Errorf("rules: %s: ppn buckets not complete", t.Collective)
		}
	}
	if t.Buckets[len(t.Buckets)-1].MaxNodes != Unbounded {
		return fmt.Errorf("rules: %s: node buckets not complete", t.Collective)
	}
	return nil
}

// Validate checks every table in the file.
func (f *File) Validate() error {
	if len(f.Tables) == 0 {
		return fmt.Errorf("rules: file has no tables")
	}
	for name, t := range f.Tables {
		if t == nil {
			return fmt.Errorf("rules: nil table %q", name)
		}
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Prune merges consecutive rules that resolve to the same algorithm —
// the paper's requirement that "no two consecutive rules resolve to the
// same prediction". It also merges adjacent ppn and node buckets whose
// contents become identical.
func (t *Table) Prune() {
	for bi := range t.Buckets {
		nb := &t.Buckets[bi]
		for pi := range nb.PPNs {
			nb.PPNs[pi].Rules = pruneMsgRules(nb.PPNs[pi].Rules)
		}
		nb.PPNs = prunePPNBuckets(nb.PPNs)
	}
	t.Buckets = pruneNodeBuckets(t.Buckets)
}

func pruneMsgRules(rs []MsgRule) []MsgRule {
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && out[n-1].Alg == r.Alg {
			out[n-1].MaxMsg = r.MaxMsg
			continue
		}
		out = append(out, r)
	}
	return out
}

func prunePPNBuckets(bs []PPNBucket) []PPNBucket {
	out := bs[:0]
	for _, b := range bs {
		if n := len(out); n > 0 && msgRulesEqual(out[n-1].Rules, b.Rules) {
			out[n-1].MaxPPN = b.MaxPPN
			continue
		}
		out = append(out, b)
	}
	return out
}

func pruneNodeBuckets(bs []NodeBucket) []NodeBucket {
	out := bs[:0]
	for _, b := range bs {
		if n := len(out); n > 0 && ppnBucketsEqual(out[n-1].PPNs, b.PPNs) {
			out[n-1].MaxNodes = b.MaxNodes
			continue
		}
		out = append(out, b)
	}
	return out
}

func msgRulesEqual(a, b []MsgRule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ppnBucketsEqual(a, b []PPNBucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MaxPPN != b[i].MaxPPN || !msgRulesEqual(a[i].Rules, b[i].Rules) {
			return false
		}
	}
	return true
}

// NumRules counts the message-level rules in the table, the quantity
// pruning minimises.
func (t *Table) NumRules() int {
	n := 0
	for _, nb := range t.Buckets {
		for _, pb := range nb.PPNs {
			n += len(pb.Rules)
		}
	}
	return n
}

// Write encodes the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes the JSON to a path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return f.Write(out)
}

// read decodes a selection file and validates it.
func read(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("rules: decode: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// ReadFile reads and validates a selection file from a path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return read(in)
}
