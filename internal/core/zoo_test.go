package core

import (
	"rmt/internal/instance"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/protocol"
)

// Strategies enumerates the legacy attack zoo against an instance for a
// given corruption set: every node of t is corrupted with the same strategy
// kind. It mirrors the six byzantine registry entries experiment E3 runs,
// which this package's tests cannot import (byzantine imports core).
func Strategies(in *instance.Instance, t nodeset.Set, forged network.Value) map[string]map[int]network.Process {
	ghostBase := in.G.MaxID() + 1
	zoo := map[string]map[int]network.Process{
		"silent":         protocol.Silence(t),
		"value-flip":     {},
		"path-forgery":   {},
		"ghost-node":     {},
		"split-brain":    {},
		"structure-liar": {},
	}
	i := 0
	t.ForEach(func(c int) bool {
		zoo["value-flip"][c] = NewValueFlipper(in, c, forged)
		zoo["path-forgery"][c] = NewPathForger(in, c, forged)
		zoo["ghost-node"][c] = NewGhostForger(in, c, ghostBase+i, forged)
		zoo["split-brain"][c] = NewSplitBrain(in, c, forged)
		zoo["structure-liar"][c] = NewStructureLiar(in, c)
		i++
		return true
	})
	return zoo
}
