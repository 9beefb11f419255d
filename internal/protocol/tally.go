package protocol

import (
	"slices"
	"strings"

	"rmt/internal/network"
	"rmt/internal/nodeset"
)

// Tally counts distinct senders per value: the bookkeeping behind every
// rule of the form "upon the same value from enough distinct players" —
// 𝒵-CPA's certification rule (and so the broadcast protocol's) and MBRB's
// echo and ready quorums.
//
// The contract:
//   - Values are kept in ascending order, so scanning indices 0..Len()-1 is
//     the sorted-value scan that makes every engine reach the same verdict.
//   - The owning player mutates the sender sets in place; Add allocates
//     only when a value is first seen or a set outgrows its words.
//   - A Decider handed a tally may read it during the call only: it must
//     not retain the tally or any set Senders returns, which the next Add
//     may change.
//
// The zero value is an empty tally ready to use.
type Tally struct {
	entries []tallyEntry
}

type tallyEntry struct {
	x       network.Value
	senders nodeset.Set
}

// Add records that player from reported x and returns x's index.
func (t *Tally) Add(x network.Value, from int) int {
	i, found := slices.BinarySearchFunc(t.entries, x, func(e tallyEntry, x network.Value) int {
		return strings.Compare(string(e.x), string(x))
	})
	if !found {
		t.entries = slices.Insert(t.entries, i, tallyEntry{x: x})
	}
	t.entries[i].senders.MutateAdd(from)
	return i
}

// Len returns the number of distinct values reported.
func (t *Tally) Len() int { return len(t.entries) }

// Value returns the i-th smallest reported value.
func (t *Tally) Value(i int) network.Value { return t.entries[i].x }

// Senders returns the players that reported the i-th value. The set
// belongs to the tally: read it, never retain or mutate it.
func (t *Tally) Senders(i int) nodeset.Set { return t.entries[i].senders }

// Count returns the number of players that reported the i-th value.
func (t *Tally) Count(i int) int { return t.entries[i].senders.Len() }
