package cliutil

import (
	"fmt"
	"strings"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/nodeset"
)

// refParseStructure is ParseStructure as it grew each set one Add (one
// copy of the set) per ID.
func refParseStructure(s string) (adversary.Structure, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return adversary.Trivial(), nil
	}
	var sets []nodeset.Set
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		set := nodeset.Empty()
		for _, f := range strings.Split(part, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			id, err := parseBoundedID(f)
			if err != nil {
				return adversary.Structure{}, fmt.Errorf("cliutil: bad node %q in structure: %w", f, err)
			}
			set = set.Add(id)
		}
		sets = append(sets, set)
	}
	return adversary.FromSets(sets...), nil
}

// FuzzParseStructure checks the structure parser never panics, agrees
// with the set-at-a-time reference — the same structure or the same error
// text — and that accepted inputs round-trip through FormatStructure.
func FuzzParseStructure(f *testing.F) {
	for _, seed := range []string{
		"1,2;3",
		"",
		";;",
		"1",
		"0,0,0",
		" 4 , 5 ; 6 ",
		"-1",
		"1,x",
		"9999999",
		"1048576,3;70,2,,;, ;200",
		" ; , ;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		z, err := ParseStructure(s)
		ref, refErr := refParseStructure(s)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%q: error %v, reference %v", s, err, refErr)
		}
		if err != nil {
			return
		}
		if !z.Equal(ref) {
			t.Fatalf("%q: %v, reference %v", s, z, ref)
		}
		back, err := ParseStructure(FormatStructure(z))
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !back.Equal(z) {
			t.Fatalf("round trip changed the structure: %v vs %v", z, back)
		}
	})
}

// FuzzParseInstanceSpec checks the instance-spec parser never panics and
// that accepted specs survive a parse → Format → parse round trip with
// every field intact.
func FuzzParseInstanceSpec(f *testing.F) {
	for _, seed := range []string{
		"# rmt instance v1\ngraph: 0-1 0-2 1-2\nstructure: 1\nknowledge: adhoc\ndealer: 0\nreceiver: 2\n",
		"graph: 0-1\nreceiver: 1",
		"graph: 0-1 1-2 2-3\nstructure: 1;2\nknowledge: full\nreceiver: 3\ndealer: 0",
		"receiver: 4",
		"graph: 0-1\nreceiver: 1\nbogus: 7",
		"graph 0-1\nreceiver: 1",
		"graph: 0-1\nknowledge: radius2\nreceiver: 1\n# trailing comment",
		"graph: 0-0\nreceiver: 0",
		"graph: 0-1\nreceiver: -5",
		"GRAPH: 0-1\nRECEIVER: 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseInstanceSpec(s)
		if err != nil {
			return
		}
		back, err := ParseInstanceSpec(spec.Format())
		if err != nil {
			t.Fatalf("round trip parse failed: %v\nrendered:\n%s", err, spec.Format())
		}
		if !back.Graph.Equal(spec.Graph) {
			t.Fatalf("round trip changed the graph: %v vs %v", spec.Graph, back.Graph)
		}
		if !back.Z.Equal(spec.Z) {
			t.Fatalf("round trip changed the structure: %v vs %v", spec.Z, back.Z)
		}
		if back.Knowledge != spec.Knowledge {
			t.Fatalf("round trip changed knowledge: %v vs %v", spec.Knowledge, back.Knowledge)
		}
		if back.Dealer != spec.Dealer || back.Receiver != spec.Receiver {
			t.Fatalf("round trip changed endpoints: %d/%d vs %d/%d",
				spec.Dealer, spec.Receiver, back.Dealer, back.Receiver)
		}
	})
}

// FuzzParseNodeSet checks the node-set parser.
func FuzzParseNodeSet(f *testing.F) {
	for _, seed := range []string{"1,2,3", "", " 7 ", "0", "1,,2", "x"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseNodeSet(s)
		if err != nil {
			return
		}
		if set.Len() < 0 {
			t.Fatal("negative length")
		}
		set.ForEach(func(id int) bool {
			if id < 0 {
				t.Fatalf("negative member %d", id)
			}
			return true
		})
	})
}
