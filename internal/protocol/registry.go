package protocol

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Canonical registry names of the built-in protocols. These constants are
// the only place protocol names are spelled; every other layer resolves
// through them.
const (
	PKA       = "pka"
	ZCPA      = "zcpa"
	PPA       = "ppa"
	Broadcast = "broadcast"
	MBRB      = "mbrb"
	SMT       = "smt"
)

var registry = struct {
	sync.RWMutex
	m map[string]Protocol
}{m: make(map[string]Protocol)}

// Register adds a protocol under its Name. Protocol packages call it from
// init(); registering an empty name or a duplicate panics, as with
// database/sql drivers.
func Register(p Protocol) {
	name := p.Name()
	if name == "" {
		panic("protocol: Register with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic("protocol: Register called twice for " + name)
	}
	registry.m[name] = p
}

// Get returns the protocol registered under name.
func Get(name string) (Protocol, bool) {
	registry.RLock()
	defer registry.RUnlock()
	p, ok := registry.m[name]
	return p, ok
}

// MustGet returns the protocol registered under name, panicking when
// absent. For static names known at compile time.
func MustGet(name string) Protocol {
	p, ok := Get(name)
	if !ok {
		panic("protocol: no protocol registered as " + name)
	}
	return p
}

// Names returns the registered protocol names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for name := range registry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered protocols in name order.
func All() []Protocol {
	names := Names()
	out := make([]Protocol, len(names))
	for i, name := range names {
		out[i] = MustGet(name)
	}
	return out
}

// UnknownError builds the not-registered error with the available names.
func UnknownError(name string) error {
	return fmt.Errorf("protocol: unknown protocol %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}
