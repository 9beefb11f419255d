package network_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rmt/internal/adversary"
	"rmt/internal/broadcast"
	"rmt/internal/byzantine"
	"rmt/internal/core"
	"rmt/internal/gen"
	"rmt/internal/graph"
	"rmt/internal/instance"
	"rmt/internal/mbrb"
	"rmt/internal/network"
	"rmt/internal/nodeset"
	"rmt/internal/ppa"
	"rmt/internal/protocol"
	"rmt/internal/smt"
	"rmt/internal/zcpa"
)

// The reference players of the run differential: MBRB and 𝒵-CPA as they
// counted senders before protocol.Tally — one map from value to sender Set,
// each count a fresh Set.Add clone, each quorum scan a sorted copy of the
// keys, each send its own boxed payload — kept as they were up to naming.
// The 𝒵-CPA reference reads Z_v from the instance's full LocalKnowledge map,
// as every player did before LocalStructure built one node at a time.

type refMBRBPlayer struct {
	id        int
	dealer    int
	value     network.Value
	neighbors nodeset.Set
	q         mbrb.Quorums

	echoes    map[network.Value]nodeset.Set
	readys    map[network.Value]nodeset.Set
	echoed    bool
	readied   bool
	delivered bool
	x         network.Value
}

func (p *refMBRBPlayer) Init(out network.Outbox) {
	if p.id != p.dealer {
		return
	}
	p.echoed = true
	p.count(p.echoes, p.id, p.value)
	p.broadcast(out, mbrb.Msg{Phase: mbrb.PhaseInit, X: p.value})
}

func (p *refMBRBPlayer) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	if p.delivered {
		return false
	}
	for _, m := range inbox {
		msg, ok := m.Payload.(mbrb.Msg)
		if !ok {
			continue
		}
		switch msg.Phase {
		case mbrb.PhaseInit:
			if m.From != p.dealer {
				continue
			}
			p.count(p.echoes, m.From, msg.X)
			p.echo(out, msg.X)
		case mbrb.PhaseEcho:
			p.count(p.echoes, m.From, msg.X)
		case mbrb.PhaseReady:
			p.count(p.readys, m.From, msg.X)
		}
	}
	for _, x := range refValues(p.echoes) {
		if p.echoes[x].Len() >= p.q.Amp {
			p.echo(out, x)
		}
		if p.echoes[x].Len() >= p.q.Echo {
			p.ready(out, x)
		}
	}
	for _, x := range refValues(p.readys) {
		if p.readys[x].Len() >= p.q.Amp {
			p.ready(out, x)
		}
		if p.readys[x].Len() >= p.q.Deliver {
			p.delivered, p.x = true, x
			return false
		}
	}
	return true
}

func (p *refMBRBPlayer) Decision() (network.Value, bool) { return p.x, p.delivered }

func (p *refMBRBPlayer) echo(out network.Outbox, x network.Value) {
	if p.echoed {
		return
	}
	p.echoed = true
	p.count(p.echoes, p.id, x)
	p.broadcast(out, mbrb.Msg{Phase: mbrb.PhaseEcho, X: x})
}

func (p *refMBRBPlayer) ready(out network.Outbox, x network.Value) {
	if p.readied {
		return
	}
	p.readied = true
	p.count(p.readys, p.id, x)
	p.broadcast(out, mbrb.Msg{Phase: mbrb.PhaseReady, X: x})
}

func (p *refMBRBPlayer) count(into map[network.Value]nodeset.Set, from int, x network.Value) {
	set, ok := into[x]
	if !ok {
		set = nodeset.Empty()
	}
	into[x] = set.Add(from)
}

func (p *refMBRBPlayer) broadcast(out network.Outbox, m mbrb.Msg) {
	p.neighbors.ForEach(func(u int) bool {
		out(u, m)
		return true
	})
}

func refValues(m map[network.Value]nodeset.Set) []network.Value {
	vals := make([]network.Value, 0, len(m))
	for x := range m {
		vals = append(vals, x)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

type refZCPADealer struct {
	value     network.Value
	neighbors nodeset.Set
}

func (d *refZCPADealer) Init(out network.Outbox) {
	d.neighbors.ForEach(func(u int) bool {
		out(u, zcpa.ValuePayload{X: d.value})
		return true
	})
}

func (d *refZCPADealer) Round(int, []network.Message, network.Outbox) bool { return false }
func (d *refZCPADealer) Decision() (network.Value, bool)                   { return d.value, true }

type refZCPAPlayer struct {
	id         int
	dealer     int
	isReceiver bool
	neighbors  nodeset.Set
	local      adversary.LocalKnowledge

	reporters map[network.Value]nodeset.Set
	decided   bool
	value     network.Value
}

func (p *refZCPAPlayer) Init(network.Outbox) {}

func (p *refZCPAPlayer) Round(_ int, inbox []network.Message, out network.Outbox) bool {
	if p.decided {
		return false
	}
	for _, m := range inbox {
		vp, ok := m.Payload.(zcpa.ValuePayload)
		if !ok {
			continue
		}
		if m.From == p.dealer {
			p.decide(vp.X, out)
			return false
		}
		set, exists := p.reporters[vp.X]
		if !exists {
			set = nodeset.Empty()
		}
		p.reporters[vp.X] = set.Add(m.From)
	}
	if len(p.reporters) > 0 {
		if x, ok := p.certify(); ok {
			p.decide(x, out)
			return false
		}
	}
	return true
}

// certify is the pre-tally oracle decider with the direct membership check.
func (p *refZCPAPlayer) certify() (network.Value, bool) {
	for _, x := range refValues(p.reporters) {
		zv, ok := p.local[p.id]
		if !ok {
			zv = adversary.Identity()
		}
		if !zv.Contains(p.reporters[x]) {
			return x, true
		}
	}
	return "", false
}

func (p *refZCPAPlayer) decide(x network.Value, out network.Outbox) {
	p.decided = true
	p.value = x
	if p.isReceiver {
		return
	}
	p.neighbors.ForEach(func(u int) bool {
		out(u, zcpa.ValuePayload{X: x})
		return true
	})
}

func (p *refZCPAPlayer) Decision() (network.Value, bool) { return p.value, p.decided }

// refProto runs reference players under a registry protocol's name and caps.
type refProto struct {
	protocol.Protocol
	assemble func(in *instance.Instance, xD network.Value, opts protocol.Options) map[int]network.Process
}

func (r refProto) Assemble(in *instance.Instance, xD network.Value, opts protocol.Options) (map[int]network.Process, error) {
	return r.assemble(in, xD, opts), nil
}

func refMBRB(in *instance.Instance, xD network.Value, opts protocol.Options) map[int]network.Process {
	q := mbrb.NewQuorums(in.N(), mbrb.Threshold(in), opts.MABudget)
	return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), opts.Corrupt, func(v int) network.Process {
		val := network.Value("")
		if v == in.Dealer {
			val = xD
		}
		return &refMBRBPlayer{id: v, dealer: in.Dealer, value: val, neighbors: in.G.Neighbors(v), q: q,
			echoes: map[network.Value]nodeset.Set{}, readys: map[network.Value]nodeset.Set{}}
	})
}

// refZCPA builds the reference 𝒵-CPA process map; relayAll makes the
// receiver relay too, as in the broadcast protocol.
func refZCPA(relayAll bool) func(in *instance.Instance, xD network.Value, opts protocol.Options) map[int]network.Process {
	return func(in *instance.Instance, xD network.Value, opts protocol.Options) map[int]network.Process {
		local := in.LocalKnowledge()
		return protocol.Build(in.G, nodeset.Of(in.Dealer, in.Receiver), opts.Corrupt, func(v int) network.Process {
			if v == in.Dealer {
				return &refZCPADealer{value: xD, neighbors: in.G.Neighbors(v)}
			}
			return &refZCPAPlayer{id: v, dealer: in.Dealer, isReceiver: v == in.Receiver && !relayAll,
				neighbors: in.G.Neighbors(v), local: local, reporters: map[network.Value]nodeset.Set{}}
		})
	}
}

// diffRun is one seeded run of the differential.
type diffRun struct {
	proto, ref protocol.Protocol
	in         *instance.Instance
	engine     network.Engine
	schedule   string
	schedSeed  int64
	maPolicy   string
	budget     int
	maSeed     int64
	corrupt    nodeset.Set
	strategy   byzantine.Strategy
}

func (d diffRun) String() string {
	return fmt.Sprintf("%s on %v (D=%d R=%d Z=%v) engine=%s schedule=%s/%d ma=%s(d=%d)/%d corrupt=%v strategy=%s",
		d.proto.Name(), d.in.G, d.in.Dealer, d.in.Receiver, d.in.Z, d.engine.Name(), d.schedule, d.schedSeed,
		d.maPolicy, d.budget, d.maSeed, d.corrupt, d.strategy.Name())
}

// exec runs p on e with fresh single-use scheduler, message adversary and
// strategy overlay, returning the result and the JSONL event stream.
func (d diffRun) exec(t *testing.T, p protocol.Protocol, e network.Engine) (*network.Result, []byte, error) {
	t.Helper()
	var trace bytes.Buffer
	jsonl := network.NewJSONLTracer(&trace)
	opts := protocol.Options{Engine: e, MABudget: d.budget, RecordTranscript: true, Tracers: []network.Tracer{jsonl}}
	if d.schedule != "" {
		opts.Scheduler = network.MustScheduler(d.schedule, d.schedSeed)
	}
	if d.maPolicy != "" {
		opts.MsgAdversary = network.MustMessageAdversary(d.maPolicy, d.budget, d.maSeed)
	}
	opts.Corrupt = d.strategy.Build(d.in, d.corrupt, "forged")
	res, err := protocol.Run(p, d.in, "x", opts)
	if err == nil {
		err = jsonl.Err()
	}
	return res, trace.Bytes(), err
}

// drawRun draws a run: a protocol and an instance it accepts, an engine (a
// seeded schedule under async), a suppression policy and budget, and a
// corruption set — none, a maximal one, or one pushed outside 𝒵 — with a
// strategy.
func drawRun(t *testing.T, r *rand.Rand) diffRun {
	t.Helper()
	protos := []struct {
		proto, ref protocol.Protocol
	}{
		{mbrb.Proto{}, refProto{mbrb.Proto{}, refMBRB}},
		{zcpa.Proto{}, refProto{zcpa.Proto{}, refZCPA(false)}},
		{broadcast.Proto{}, refProto{broadcast.Proto{}, refZCPA(true)}},
		// The same players on both sides: these runs differ only in the
		// engine's loss sweeps, under the heavier PKA, PPA and SMT traffic.
		{core.Proto{}, core.Proto{}},
		{ppa.Proto{}, ppa.Proto{}},
		{smt.Proto{}, smt.Proto{}},
	}
	pick := protos[r.Intn(len(protos))]
	d := diffRun{proto: pick.proto, ref: pick.ref}
	level := gen.Levels()[r.Intn(len(gen.Levels()))]
	if pick.proto.Caps().NeedsFullKnowledge {
		level = gen.FullKnowledge
	}
	var (
		g    *graph.Graph
		z    adversary.Structure
		dl   = 0
		rcv  int
		err  error
		kind = r.Intn(4)
	)
	if pick.proto.Caps().CompleteGraph {
		kind = -1
	}
	switch kind {
	case -1:
		n := 4 + r.Intn(6)
		g, rcv = gen.Complete(n), n-1
		z = adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, n-1)), 1+r.Intn(3), 0.15)
	case 0:
		g, dl, rcv = gen.DisjointPaths(2+r.Intn(3), 1+r.Intn(2))
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(dl, rcv)))
	case 1:
		g, z, dl, rcv = gen.ChimeraScaled(2 + r.Intn(2))
	case 2:
		g, dl, rcv = gen.Layered(2, 2+r.Intn(2))
		z = gen.Singletons(g.Nodes().Minus(nodeset.Of(dl, rcv)))
	default:
		n := 5 + r.Intn(4)
		g = gen.RandomGNP(r, n, 0.45)
		rcv = n - 1
		z = adversary.Random(r, g.Nodes().Minus(nodeset.Of(0, rcv)), 2+r.Intn(2), 0.3)
	}
	if d.in, err = gen.Build(g, z, level, dl, rcv); err != nil {
		t.Fatal(err)
	}
	engines := []network.Engine{network.Lockstep, network.Goroutine, network.Async}
	d.engine = engines[r.Intn(len(engines))]
	if d.engine == network.Async {
		d.schedule = network.SchedulerNames()[r.Intn(len(network.SchedulerNames()))]
		d.schedSeed = r.Int63()
	}
	if d.budget = r.Intn(3); d.budget > 0 {
		d.maPolicy = network.MessageAdversaryNames()[r.Intn(len(network.MessageAdversaryNames()))]
		d.maSeed = r.Int63()
	}
	if maximal := d.in.MaximalCorruptions(); r.Intn(4) > 0 {
		d.corrupt = maximal[r.Intn(len(maximal))]
		if r.Intn(3) == 0 {
			// A control corruption outside 𝒵, under which forged values can
			// certify too and the value scan order decides.
			ids := d.in.G.SortedIDs()
			if v := ids[r.Intn(len(ids))]; v != d.in.Dealer && v != d.in.Receiver {
				d.corrupt = d.corrupt.Add(v)
			}
		}
	}
	names := byzantine.Names()
	d.strategy, _ = byzantine.Get(names[r.Intn(len(names))])
	return d
}

// TestPlayersAndSweepsMatchReference is the run differential: over 1,200
// seeded runs varying protocol, instance family and knowledge, engine,
// schedule, suppression policy and budget, corruption set (inside and
// outside 𝒵) and strategy,
// the tally players on the one-pass engine produce byte-identical JSONL
// event streams — Lose order included — and equal results to the reference
// players on the reference engine.
func TestPlayersAndSweepsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	runs, losses := 0, 0
	for runs < 1200 {
		d := drawRun(t, r)
		got, gotTrace, err := d.exec(t, d.proto, d.engine)
		if protocol.IsCapsError(err) {
			continue // e.g. SMT on an instance whose ground severs D from R
		}
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		want, wantTrace, err := d.exec(t, d.ref, network.ReferenceEngine(d.engine))
		if err != nil {
			t.Fatalf("%v: reference: %v", d, err)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("%v: event streams differ\n got %s\nwant %s", d, gotTrace, wantTrace)
		}
		if !reflect.DeepEqual(got.Decisions, want.Decisions) || got.Rounds != want.Rounds ||
			!reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Fatalf("%v: results differ: %+v vs %+v", d, got, want)
		}
		runs++
		losses += bytes.Count(gotTrace, []byte(`"ev":"lose"`))
	}
	if losses < 1000 {
		t.Fatalf("only %d Lose events compared", losses)
	}
}
