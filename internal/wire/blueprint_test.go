package wire

import (
	"encoding/json"
	"testing"

	"rmt/internal/network"
)

// TestSpecFrameSchema pins the spec frame's JSON: network.Blueprint's tags
// are the wire schema, so a renamed or reordered field, or a lost
// omitempty, breaks children built from another checkout.
func TestSpecFrameSchema(t *testing.T) {
	cases := []struct {
		bp   network.Blueprint
		want string
	}{
		{network.Blueprint{Instance: "graph: 0-1\nreceiver: 1\n", Protocol: "pka", Value: "x"},
			`{"blueprint":{"instance":"graph: 0-1\nreceiver: 1\n","protocol":"pka","value":"x"}}`},
		{network.Blueprint{Instance: "i", Protocol: "smt", Value: "v", Corrupt: []int{2, 3}, Attack: "silent", Forged: "f", Listen: "1;2", Seed: 7},
			`{"blueprint":{"instance":"i","protocol":"smt","value":"v","corrupt":[2,3],"attack":"silent","forged":"f","listen":"1;2","seed":7}}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(specBody{Blueprint: tc.bp})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("spec frame body:\n got %s\nwant %s", got, tc.want)
		}
	}
}
