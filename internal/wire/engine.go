package wire

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"rmt/internal/network"
)

// EngineWire is the wire engine's registry name.
const EngineWire = "wire"

// Engine is the wire execution engine with default timeouts: one OS process
// per player over TCP. It is also resolvable as "wire" via
// network.EngineByName once this package is imported; NewEngine builds one
// with custom deadlines.
var Engine network.Engine = wireEngine{opts: EngineOptions{}.withDefaults()}

func init() { network.RegisterEngine(Engine) }

// EngineOptions are the wire engine's lifecycle deadlines. The zero value of
// every field means its default; NewEngine applies them.
type EngineOptions struct {
	// HandshakeTimeout bounds cluster boot: spawning every child, accepting
	// their connections and completing the hello/spec/ready exchange.
	// Default 30s.
	HandshakeTimeout time.Duration
	// StepTimeout bounds one Init/Round round-trip with a single child.
	// Default 60s.
	StepTimeout time.Duration
	// ByeTimeout bounds the polite bye frame to each child at shutdown.
	// Default 2s.
	ByeTimeout time.Duration
	// KillGrace is how long shutdown waits for a child to exit after bye
	// before killing it. Every child is reaped (cmd.Wait) either way — a
	// failed handshake or a mid-run child death must never leave zombies.
	// Default 5s.
	KillGrace time.Duration
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 30 * time.Second
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 60 * time.Second
	}
	if o.ByeTimeout <= 0 {
		o.ByeTimeout = 2 * time.Second
	}
	if o.KillGrace <= 0 {
		o.KillGrace = 5 * time.Second
	}
	return o
}

// NewEngine returns a wire engine with the given deadlines. The package-level
// Engine uses the defaults; tests and latency-sensitive embedders shorten
// them.
func NewEngine(opts EngineOptions) network.Engine {
	return wireEngine{opts: opts.withDefaults()}
}

type wireEngine struct{ opts EngineOptions }

// Name implements network.Engine.
func (wireEngine) Name() string { return EngineWire }

// Run implements network.Engine. The coordinator rebuilds the run from the
// Blueprint (ignoring any caller-supplied process map — children can only be
// configured with pure data, and using the same construction on both sides
// guarantees they agree), spawns one child process per player, substitutes a
// proxy Process per node and then reuses the lockstep round loop verbatim.
// The proxies round-trip Init/Round over TCP, so the Tracer event stream,
// metrics and transcripts come from the same code path as the in-process
// engines.
func (e wireEngine) Run(cfg Config) (*network.Result, error) { return runWire(cfg, e.opts) }

// Config is network.Config; aliased so the Engine method set reads naturally.
type Config = network.Config

func runWire(cfg Config, opts EngineOptions) (*network.Result, error) {
	if cfg.Blueprint == nil {
		return nil, fmt.Errorf("wire: config has no Blueprint (the wire engine rebuilds the run from pure data; use protocol.Run with Options.Blueprint set, or fill Config.Blueprint)")
	}
	if cfg.Scheduler != nil {
		return nil, fmt.Errorf("wire: schedulers are not supported (wire delivery is strictly synchronous)")
	}
	if len(cfg.Churn) > 0 {
		return nil, fmt.Errorf("wire: topology churn is not supported (children hold a private graph copy fixed at handshake)")
	}
	if cfg.MsgAdversary != nil {
		return nil, fmt.Errorf("wire: message adversaries are not supported (the blueprint carries no suppression policy, so children could not agree on quorum parameters)")
	}
	bp := *cfg.Blueprint
	localProcs, in, err := buildProcesses(bp)
	if err != nil {
		return nil, err
	}
	// The blueprint is the source of truth for the topology too: a caller
	// graph that disagrees with the spec would desynchronize the children.
	cfg.Graph = in.G

	cl, err := newCluster(bp, localProcs, opts)
	if err != nil {
		return nil, err
	}
	defer cl.shutdown()

	cfg.Processes = make(map[int]network.Process, len(cl.nodes))
	for v, nd := range cl.nodes {
		cfg.Processes[v] = &remoteProc{cl: cl, node: nd}
	}
	if cfg.Engine == nil {
		cfg.Engine = Engine
	}
	res, err := network.Lockstep.Run(cfg)
	if err != nil {
		return nil, err
	}
	if cerr := cl.firstErr(); cerr != nil {
		return nil, cerr
	}
	return res, nil
}

// cluster owns the child processes and their connections for one run.
type cluster struct {
	ln    net.Listener
	nodes map[int]*nodeConn
	opts  EngineOptions

	mu  sync.Mutex
	err error // first fatal error anywhere in the cluster
}

// testHookClusterReady, when non-nil, runs after the handshake completes and
// before the first step — tests use it to sabotage a live cluster (e.g. kill
// a child) and then assert the coordinator reaps everything.
var testHookClusterReady func(*cluster)

// nodeConn is the coordinator's handle on one child.
type nodeConn struct {
	id   int
	cmd  *exec.Cmd
	conn net.Conn
}

// newCluster listens on an ephemeral loopback port, re-execs the current
// binary once per player with the node identity in the environment, and
// completes the hello/spec/ready handshake with every child.
func newCluster(bp network.Blueprint, procs map[int]network.Process, opts EngineOptions) (*cluster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	cl := &cluster{ln: ln, nodes: make(map[int]*nodeConn, len(procs)), opts: opts}

	exe, err := os.Executable()
	if err != nil {
		cl.shutdown()
		return nil, fmt.Errorf("wire: locate executable: %w", err)
	}
	tok := make([]byte, 16)
	if _, err := rand.Read(tok); err != nil {
		cl.shutdown()
		return nil, fmt.Errorf("wire: token: %w", err)
	}
	token := hex.EncodeToString(tok)

	for v := range procs {
		// The "-node" argument only labels the child in process listings;
		// IsNode keys on the environment.
		cmd := exec.Command(exe, "-node")
		cmd.Env = append(os.Environ(),
			envAddr+"="+ln.Addr().String(),
			fmt.Sprintf("%s=%d", envNode, v),
			envToken+"="+token,
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			cl.shutdown()
			return nil, fmt.Errorf("wire: spawn node %d: %w", v, err)
		}
		cl.nodes[v] = &nodeConn{id: v, cmd: cmd}
	}

	// Children connect in arbitrary order; the hello frame tells us which
	// node each connection is.
	deadline := time.Now().Add(opts.HandshakeTimeout)
	if dl, ok := ln.(*net.TCPListener); ok {
		_ = dl.SetDeadline(deadline)
	}
	for range procs {
		conn, err := ln.Accept()
		if err != nil {
			cl.shutdown()
			return nil, fmt.Errorf("wire: accept: %w", err)
		}
		_ = conn.SetDeadline(deadline)
		t, body, err := readFrame(conn)
		if err != nil {
			conn.Close()
			cl.shutdown()
			return nil, fmt.Errorf("wire: handshake: %w", err)
		}
		if t != frameHello {
			conn.Close()
			cl.shutdown()
			return nil, fmt.Errorf("wire: handshake: expected hello, got %v", t)
		}
		var hello helloBody
		if err := json.Unmarshal(body, &hello); err != nil {
			conn.Close()
			cl.shutdown()
			return nil, fmt.Errorf("wire: handshake: decode hello: %w", err)
		}
		if hello.Token != token {
			_ = writeFrame(conn, frameError, errorBody{Msg: "bad token"})
			conn.Close()
			cl.shutdown()
			return nil, fmt.Errorf("wire: handshake: node %d presented a bad token", hello.Node)
		}
		nd, ok := cl.nodes[hello.Node]
		if !ok || nd.conn != nil {
			conn.Close()
			cl.shutdown()
			return nil, fmt.Errorf("wire: handshake: unexpected node %d", hello.Node)
		}
		nd.conn = conn
	}

	// All children connected: ship the blueprint, collect readiness.
	for _, nd := range cl.nodes {
		if err := writeFrame(nd.conn, frameSpec, specBody{Blueprint: bp}); err != nil {
			cl.shutdown()
			return nil, err
		}
	}
	for v, nd := range cl.nodes {
		t, body, err := readFrame(nd.conn)
		if err != nil {
			cl.shutdown()
			return nil, fmt.Errorf("wire: node %d: %w", v, err)
		}
		switch t {
		case frameReady:
		case frameError:
			err := coordinatorError(body)
			cl.shutdown()
			return nil, fmt.Errorf("wire: node %d: %w", v, err)
		default:
			cl.shutdown()
			return nil, fmt.Errorf("wire: node %d: expected ready, got %v", v, t)
		}
		_ = nd.conn.SetDeadline(time.Time{})
	}
	if testHookClusterReady != nil {
		testHookClusterReady(cl)
	}
	return cl, nil
}

// fail records the cluster's first fatal error. Later proxy steps observe it
// and halt immediately, winding the engine down.
func (cl *cluster) fail(err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.err == nil {
		cl.err = err
	}
}

func (cl *cluster) firstErr() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// shutdown ends every child: polite bye frames, then closed connections,
// then a bounded wait with a kill fallback. It runs on every exit path —
// clean completion, handshake failure, mid-run child death — and always
// reaps (cmd.Wait) every spawned child, so no path leaves zombies behind.
func (cl *cluster) shutdown() {
	for _, nd := range cl.nodes {
		if nd.conn != nil {
			_ = nd.conn.SetDeadline(time.Now().Add(cl.opts.ByeTimeout))
			_ = writeFrame(nd.conn, frameBye, struct{}{})
			nd.conn.Close()
		}
	}
	if cl.ln != nil {
		cl.ln.Close()
	}
	for _, nd := range cl.nodes {
		if nd.cmd == nil || nd.cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(nd.cmd)
		select {
		case <-done:
		case <-time.After(cl.opts.KillGrace):
			_ = nd.cmd.Process.Kill()
			<-done
		}
	}
}

// step performs one Init/Round exchange with a child and returns its acted
// frame.
func (cl *cluster) step(nd *nodeConn, t frameType, body any) (actedBody, error) {
	_ = nd.conn.SetDeadline(time.Now().Add(cl.opts.StepTimeout))
	if err := writeFrame(nd.conn, t, body); err != nil {
		return actedBody{}, fmt.Errorf("wire: node %d: %w", nd.id, err)
	}
	rt, rbody, err := readFrame(nd.conn)
	if err != nil {
		return actedBody{}, fmt.Errorf("wire: node %d: %w", nd.id, err)
	}
	switch rt {
	case frameActed:
		var acted actedBody
		if err := json.Unmarshal(rbody, &acted); err != nil {
			return actedBody{}, fmt.Errorf("wire: node %d: decode acted: %w", nd.id, err)
		}
		return acted, nil
	case frameError:
		return actedBody{}, fmt.Errorf("wire: node %d: %w", nd.id, coordinatorError(rbody))
	default:
		return actedBody{}, fmt.Errorf("wire: node %d: expected acted, got %v", nd.id, rt)
	}
}

// remoteProc is the coordinator-side proxy for one child: a network.Process
// whose Init/Round calls round-trip over the socket. The engine drives it
// exactly like a local process, which is what keeps the transcript identical.
type remoteProc struct {
	cl   *cluster
	node *nodeConn

	decided  bool
	decision network.Value
}

// Init implements network.Process.
func (p *remoteProc) Init(out network.Outbox) {
	if p.cl.firstErr() != nil {
		return
	}
	acted, err := p.cl.step(p.node, frameInit, initBody{})
	if err != nil {
		p.cl.fail(err)
		return
	}
	p.apply(acted, out)
}

// Round implements network.Process. Process methods cannot return errors, so
// a failed exchange records the cluster error and halts the proxy; the
// engine then winds down and runWire surfaces the recorded error.
func (p *remoteProc) Round(round int, inbox []network.Message, out network.Outbox) bool {
	if p.cl.firstErr() != nil {
		return false
	}
	rb := roundBody{Round: round, Inbox: make([]wireMessage, len(inbox))}
	for i, m := range inbox {
		wp, ok := m.Payload.(wirePayload)
		if !ok {
			p.cl.fail(fmt.Errorf("wire: node %d inbox holds non-wire payload %T", p.node.id, m.Payload))
			return false
		}
		rb.Inbox[i] = wireMessage{From: m.From, Payload: wp.env}
	}
	acted, err := p.cl.step(p.node, frameRound, rb)
	if err != nil {
		p.cl.fail(err)
		return false
	}
	p.apply(acted, out)
	return !acted.Halted
}

// Decision implements network.Process.
func (p *remoteProc) Decision() (network.Value, bool) { return p.decision, p.decided }

// apply replays one acted frame into the engine: sends in emission order
// (wrapped as opaque wirePayloads carrying the child-computed key and bits)
// and the write-once decision.
func (p *remoteProc) apply(acted actedBody, out network.Outbox) {
	for _, s := range acted.Sends {
		out(s.To, wirePayload{env: s.Payload})
	}
	if acted.Decided && !p.decided {
		p.decided = true
		p.decision = network.Value(acted.Decision)
	}
}
