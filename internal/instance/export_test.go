package instance

// LocalKnowledgeBuilt reports whether in has built every node's Z_v yet.
func LocalKnowledgeBuilt(in *Instance) bool { return LocalStructuresBuilt(in) == in.G.NumNodes() }

// LocalStructuresBuilt reports how many nodes' Z_v LocalStructure has built.
func LocalStructuresBuilt(in *Instance) int {
	in.lazy.localMu.Lock()
	defer in.lazy.localMu.Unlock()
	return len(in.lazy.localOf)
}
