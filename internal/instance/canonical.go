package instance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"

	"rmt/internal/adversary"
	"rmt/internal/graph"
	"rmt/internal/nodeset"
)

// This file defines the canonical content identity of an instance: two
// Instance values describing the same tuple 𝓘 = (G, 𝒵, γ, D, R) — however
// their graphs, structures or views were assembled, and in whatever input
// order — render the same CanonicalString and therefore hash to the same
// CanonicalKey. The key is what the rmtd query daemon uses to cache
// feasibility verdicts and run results across requests: a client phrasing
// the same instance with permuted edge lists or structure sets hits the
// same cache line.

// CanonicalString renders the full instance tuple in a canonical textual
// form: sorted node and edge lists for G, the sorted antichain of maximal
// sets for 𝒵, each node's view graph in node order for γ, then the
// terminals. It is injective on instance tuples (two instances render
// equal strings iff graph, structure, views and terminals all coincide),
// which makes the derived hash a sound cache key.
func (in *Instance) CanonicalString() string {
	var b strings.Builder
	in.writeCanonical(&b, make([]byte, 0, 2*canonicalFlushAt))
	return b.String()
}

// CanonicalKey returns the canonical content hash of the instance: the
// hex-encoded SHA-256 of CanonicalString. Equal keys identify equal
// instance tuples (up to hash collision); input order of edges, structure
// sets and view edges never influences the key. The text is streamed into
// the hash, never held whole, and the key is memoized.
func (in *Instance) CanonicalKey() string {
	in.lazy.keyOnce.Do(func() {
		kw := keyWriters.Get().(*keyWriter)
		kw.h.Reset()
		kw.n = 0
		kw.buf = in.writeCanonical(kw, kw.buf[:0])
		in.lazy.size = kw.n
		kw.buf = kw.h.Sum(kw.buf[:0])
		var key [2 * sha256.Size]byte
		hex.Encode(key[:], kw.buf)
		in.lazy.key = string(key[:])
		if cap(kw.buf) <= maxPooledKeyBuffer {
			keyWriters.Put(kw)
		}
	})
	return in.lazy.key
}

// CanonicalSize returns the byte length of CanonicalString, counted while
// CanonicalKey streams the text, so it costs nothing once the key is known.
// The text holds every node set and view of the tuple, so its length
// tracks the instance's size; rmtd weighs cached instances by it.
func (in *Instance) CanonicalSize() int {
	in.CanonicalKey()
	return in.lazy.size
}

// AppendPartsKey appends the parts key of the tuple (G, 𝒵, D, R) to dst:
// the hex-encoded SHA-256 of its parts form, written first into dst's
// spare capacity,
//
//	"rmt-parts-v1\n"
//	|V(G)|, then V(G) in increasing order
//	for each node u in increasing order: the count of u's neighbours
//	  above u, then those neighbours in increasing order
//	the count of 𝒵's maximal sets, then each in Maximal's canonical
//	  order: its size, then its members in increasing order
//	D, R
//
// every number a uvarint. Each list follows its length, so the form is
// injective on (V(G), E(G), 𝒵, D, R), and it takes O(|V| + |E| + Σ|Z|)
// bytes whatever the IDs, where the canonical text renders a node set
// per view at one word per 64 IDs. No view is read or built: at a fixed
// knowledge level γ is a function of G, so two tuples built at one level
// share a parts key exactly when they share a CanonicalKey (up to hash
// collision). rmtd keys feasibility verdicts by it (DESIGN §12).
func AppendPartsKey(dst []byte, g *graph.Graph, z adversary.Structure, dealer, receiver int) []byte {
	start := len(dst)
	dst = append(dst, "rmt-parts-v1\n"...)
	nodes := g.Nodes()
	dst = appendMembersFrom(dst, nodes, 0)
	for w := 0; w < nodes.Width(); w++ {
		for x := nodes.Word(w); x != 0; x &= x - 1 {
			u := w*64 + bits.TrailingZeros64(x)
			dst = appendMembersFrom(dst, g.Neighbors(u), u+1)
		}
	}
	maximal := z.Maximal()
	dst = binary.AppendUvarint(dst, uint64(len(maximal)))
	for _, m := range maximal {
		dst = appendMembersFrom(dst, m, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(dealer))
	dst = binary.AppendUvarint(dst, uint64(receiver))
	sum := sha256.Sum256(dst[start:])
	return hex.AppendEncode(dst[:start], sum[:])
}

// appendMembersFrom appends the count of s's members at or above lo, then
// those members in increasing order, as uvarints.
func appendMembersFrom(dst []byte, s nodeset.Set, lo int) []byte {
	first := lo / 64
	n := 0
	for w := first; w < s.Width(); w++ {
		n += bits.OnesCount64(wordFrom(s, w, lo))
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for w := first; w < s.Width(); w++ {
		for x := wordFrom(s, w, lo); x != 0; x &= x - 1 {
			dst = binary.AppendUvarint(dst, uint64(w*64+bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// wordFrom is s's word w without the members below lo.
func wordFrom(s nodeset.Set, w, lo int) uint64 {
	x := s.Word(w)
	if w == lo/64 {
		x &^= 1<<uint(lo%64) - 1
	}
	return x
}

// keyWriter is the hash and the line buffer one CanonicalKey streams
// through, and the count of bytes written. Every request computes a key,
// so they are pooled.
type keyWriter struct {
	h   hash.Hash
	buf []byte
	n   int
}

func (kw *keyWriter) Write(p []byte) (int, error) {
	kw.n += len(p)
	return kw.h.Write(p)
}

// maxPooledKeyBuffer keeps a buffer that one large instance grew — a view
// line holds its node set's key, one word per 64 IDs — out of the pool.
const maxPooledKeyBuffer = 64 << 10

var keyWriters = sync.Pool{New: func() any {
	return &keyWriter{h: sha256.New(), buf: make([]byte, 0, 2*canonicalFlushAt)}
}}

// canonicalFlushAt bounds writeCanonical's line buffer: the buffer is
// handed to the writer once it holds this many bytes past G's text.
const canonicalFlushAt = 1 << 10

// writeCanonical streams the rmt-instance-v1 text to w through buf, which
// it reuses and returns:
//
//	rmt-instance-v1
//	graph: V{<Key of V(G)>} E{u-v u-v ...}
//	structure: <Keys of 𝒵's maximal sets, sorted, ';'-separated>
//	gamma:
//	  <v>: <γ(v) rendered like G>        (one line per node, in node order)
//	dealer: <D>
//	receiver: <R>
//
// Graphs render straight from their rows, word by word
// (graph.AppendEdges), and the views are walked in node order by index.
// G's text is rendered once and reused for every view that is G or equal
// to it — every view under full knowledge, and every ball that reaches
// all of V(G): the buffer keeps it as its head and flushes only what
// follows.
func (in *Instance) writeCanonical(w io.Writer, buf []byte) []byte {
	buf = append(buf, "rmt-instance-v1\ngraph: "...)
	gStart := len(buf)
	buf = appendCanonicalGraph(buf, in.G)
	gEnd, flushed := len(buf), 0
	buf = append(buf, "\nstructure: "...)
	buf = appendCanonicalStructure(buf, in.Z)
	buf = append(buf, "\ngamma:\n"...)
	for i := 0; i < in.Gamma.Len(); i++ {
		if len(buf)-gEnd >= canonicalFlushAt {
			w.Write(buf[flushed:])
			buf, flushed = buf[:gEnd], gEnd
		}
		v, sub := in.Gamma.At(i)
		buf = append(buf, "  "...)
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ": "...)
		if sub == in.G || sub.Equal(in.G) {
			buf = append(buf, buf[gStart:gEnd]...)
		} else {
			buf = appendCanonicalGraph(buf, sub)
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "dealer: "...)
	buf = strconv.AppendInt(buf, int64(in.Dealer), 10)
	buf = append(buf, "\nreceiver: "...)
	buf = strconv.AppendInt(buf, int64(in.Receiver), 10)
	buf = append(buf, '\n')
	w.Write(buf[flushed:])
	return buf
}

// appendCanonicalGraph renders nodes and edges in sorted order. The node
// set is included explicitly so isolated nodes are part of the identity.
func appendCanonicalGraph(dst []byte, g *graph.Graph) []byte {
	dst = append(dst, "V{"...)
	dst = g.Nodes().AppendKey(dst)
	dst = append(dst, "} E{"...)
	dst = g.AppendEdges(dst, " ")
	return append(dst, '}')
}

// appendCanonicalStructure renders the antichain of maximal sets sorted by
// their canonical set keys — the stored antichain order can depend on the
// order sets were supplied in, so it is normalized here, in a copy that
// stays on the stack for small structures.
func appendCanonicalStructure(dst []byte, z adversary.Structure) []byte {
	var arr [16]nodeset.Set
	sorted := append(arr[:0], z.Maximal()...)
	slices.SortFunc(sorted, nodeset.Set.KeyCompare)
	for i, s := range sorted {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = s.AppendKey(dst)
	}
	return dst
}
