package instance

// LocalKnowledgeBuilt reports whether in has built its full Z_v map yet.
func LocalKnowledgeBuilt(in *Instance) bool { return in.lazy.local != nil }

// LocalStructuresBuilt reports how many nodes' Z_v LocalStructure has built.
func LocalStructuresBuilt(in *Instance) int {
	in.lazy.localMu.Lock()
	defer in.lazy.localMu.Unlock()
	return len(in.lazy.localOf)
}
