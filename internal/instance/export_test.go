package instance

// LocalKnowledgeBuilt reports whether in has built its Z_v map yet.
func LocalKnowledgeBuilt(in *Instance) bool { return in.lazy.local != nil }
