// Package procnode supervises real shard node processes: it exports each
// shard's partition through the CSV path, launches one cmd/nlidb -serve
// child per replica, waits for /healthz readiness, restarts crashed
// children with jittered backoff, and exposes Kill/Restore with real
// SIGKILL — so the chaos story the in-process harness tells with an
// atomic flag runs against live operating-system processes. A Supervisor
// plus shard.NewRemote is the out-of-process deployment of the fleet:
// same routing, breakers, hedging, and honest partial answers, with a
// socket and a process boundary where a function call used to be.
package procnode

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
)

// Config tunes a Supervisor.
type Config struct {
	// Binary is the nlidb executable to launch (required unless Command
	// is overridden). A coordinator self-supervising passes
	// os.Executable().
	Binary string
	// Dir is the scratch directory for partition CSVs ("" = a fresh
	// temp dir, removed on Close).
	Dir string
	// Shards and Replicas size the fleet (defaults 1 and 1).
	Shards   int
	Replicas int
	// Epoch is the shard map version children are configured under;
	// every child refuses requests stamped with a different epoch
	// (default 1).
	Epoch int64
	// ReadyTimeout bounds the wait for a launched child to print its
	// address and pass /healthz (default 15s).
	ReadyTimeout time.Duration
	// RestartBackoff is the base delay before relaunching a crashed
	// child, doubled per consecutive crash with up to 50% jitter, capped
	// at RestartBackoffMax (defaults 100ms and 3s).
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// Seed makes restart jitter replayable (default 1).
	Seed int64
	// Stdout/Stderr receive the children's output (default: discarded).
	// Stdout sees each line after the supervisor has scanned it.
	Stdout, Stderr io.Writer
	// Command builds the child process — the test seam. Default
	// exec.Command.
	Command func(name string, args ...string) *exec.Cmd
	// HealthClient polls readiness (default: a client with a 1s
	// per-probe timeout).
	HealthClient *http.Client
	// OnEvent, when non-nil, receives supervisor lifecycle lines
	// ("shard 1 replica 0: exited (...), restarting in 200ms").
	OnEvent func(string)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 15 * time.Second
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 100 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = 3 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Command == nil {
		c.Command = exec.Command
	}
	if c.HealthClient == nil {
		c.HealthClient = &http.Client{Timeout: time.Second}
	}
	return c
}

// Supervisor owns a fleet of shard node processes. Safe for concurrent
// use once Start returns.
type Supervisor struct {
	cfg    Config
	dir    string
	ownDir bool
	part   *shard.Partitioning
	procs  [][]*Proc
}

// Start exports db's partitions as CSVs under the scratch dir, launches
// Shards×Replicas children (each replica of a shard loads the same
// partition files), and waits until every child passes /healthz.
// On any launch failure the already-started children are killed.
func Start(db *sqldata.Database, cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	dir, ownDir := cfg.Dir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "nlidb-procnode-")
		if err != nil {
			return nil, fmt.Errorf("procnode: %w", err)
		}
		dir, ownDir = d, true
	}
	sup := &Supervisor{cfg: cfg, dir: dir, ownDir: ownDir}
	files, part, err := exportPartitions(db, dir, cfg.Shards)
	if err != nil {
		sup.cleanupDir()
		return nil, err
	}
	sup.part = part
	sup.procs = make([][]*Proc, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		sup.procs[s] = make([]*Proc, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			sup.procs[s][r] = &Proc{
				sup:     sup,
				shard:   s,
				replica: r,
				files:   files[s],
				rng:     rand.New(rand.NewSource(cfg.Seed + int64(s*cfg.Replicas+r))),
			}
		}
	}
	for s := range sup.procs {
		for _, p := range sup.procs[s] {
			if err := p.launch(); err != nil {
				sup.Close()
				return nil, err
			}
		}
	}
	return sup, nil
}

// Partitioning exposes the fleet's row-placement map.
func (sup *Supervisor) Partitioning() *shard.Partitioning { return sup.part }

// Proc returns the managed process serving shard s, replica r.
func (sup *Supervisor) Proc(s, r int) *Proc { return sup.procs[s][r] }

// AddrFuncs returns the live address providers shard.RemoteFleet wants:
// [shard][replica] funcs that follow restarts (and return "" while a
// replica is down).
func (sup *Supervisor) AddrFuncs() [][]func() string {
	out := make([][]func() string, len(sup.procs))
	for s := range sup.procs {
		out[s] = make([]func() string, len(sup.procs[s]))
		for r, p := range sup.procs[s] {
			out[s][r] = p.Addr
		}
	}
	return out
}

// Map snapshots the current shard map: the fleet's epoch plus every
// replica's address as of now.
func (sup *Supervisor) Map() shard.Map {
	m := shard.Map{Epoch: sup.cfg.Epoch, Shards: make([][]string, len(sup.procs))}
	for s := range sup.procs {
		m.Shards[s] = make([]string, len(sup.procs[s]))
		for r, p := range sup.procs[s] {
			m.Shards[s][r] = p.Addr()
		}
	}
	return m
}

// Close kills every child (SIGKILL — drains are the coordinator's job,
// the supervisor's is making processes be gone), waits for the monitors
// to finish, and removes the scratch dir when the supervisor created it.
func (sup *Supervisor) Close() {
	for s := range sup.procs {
		for _, p := range sup.procs[s] {
			p.shutdown()
		}
	}
	for s := range sup.procs {
		for _, p := range sup.procs[s] {
			p.wg.Wait()
		}
	}
	sup.cleanupDir()
}

func (sup *Supervisor) cleanupDir() {
	if sup.ownDir {
		os.RemoveAll(sup.dir)
	}
}

func (sup *Supervisor) event(format string, args ...any) {
	if sup.cfg.OnEvent != nil {
		sup.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Proc is one supervised replica process.
type Proc struct {
	sup     *Supervisor
	shard   int
	replica int
	files   []string

	addr atomic.Value // string: current base URL, "" while down
	wg   sync.WaitGroup

	mu      sync.Mutex
	cmd     *exec.Cmd
	killed  bool // down on purpose (Kill); no auto-restart
	closed  bool // supervisor shut down
	crashes int
	started time.Time
	rng     *rand.Rand
}

// Addr returns the replica's current base URL ("http://127.0.0.1:port"),
// or "" while the process is down. This is the shard.RemoteFleet address
// provider: restarts rebind anonymous ports, and routing follows.
func (p *Proc) Addr() string {
	a, _ := p.addr.Load().(string)
	return a
}

// Kill SIGKILLs the child — no drain, no goodbye, exactly what a machine
// losing power does — and suppresses the automatic restart so the chaos
// window stays open until Restore.
func (p *Proc) Kill() {
	p.mu.Lock()
	p.killed = true
	cmd := p.cmd
	p.mu.Unlock()
	p.addr.Store("")
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

// Restore relaunches a Kill'd replica and blocks until it answers
// /healthz (or errors). No-op when the replica was not killed.
func (p *Proc) Restore() error {
	p.mu.Lock()
	if !p.killed {
		p.mu.Unlock()
		return nil
	}
	p.killed = false
	p.mu.Unlock()
	return p.launch()
}

// Down reports whether the replica is deliberately killed right now.
func (p *Proc) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// shutdown is Close's half of Kill: stop for good.
func (p *Proc) shutdown() {
	p.mu.Lock()
	p.closed = true
	cmd := p.cmd
	p.mu.Unlock()
	p.addr.Store("")
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

// launch starts one child and blocks until it is ready: the "serving
// http://..." line parsed off stdout, then /healthz answering 200.
func (p *Proc) launch() error {
	cfg := p.sup.cfg
	args := []string{
		"-serve", "127.0.0.1:0",
		"-csv", strings.Join(p.files, ","),
		"-join", fmt.Sprintf("%d@%d", p.shard, cfg.Epoch),
		"-cache", "0", // the coordinator caches fleet-wide
	}
	cmd := cfg.Command(cfg.Binary, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("procnode: shard %d replica %d: %w", p.shard, p.replica, err)
	}
	if cfg.Stderr != nil {
		cmd.Stderr = cfg.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("procnode: shard %d replica %d: start: %w", p.shard, p.replica, err)
	}
	p.mu.Lock()
	p.cmd = cmd
	p.started = time.Now()
	p.mu.Unlock()

	addrCh := make(chan string, 1)
	p.wg.Add(1)
	go p.scanStdout(stdout, addrCh)
	p.wg.Add(1)
	go p.monitor(cmd)

	deadline := time.Now().Add(cfg.ReadyTimeout)
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(cfg.ReadyTimeout):
		cmd.Process.Kill()
		return fmt.Errorf("procnode: shard %d replica %d: never printed its address within %s", p.shard, p.replica, cfg.ReadyTimeout)
	}
	for {
		resp, err := cfg.HealthClient.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			return fmt.Errorf("procnode: shard %d replica %d: %s never passed /healthz within %s", p.shard, p.replica, addr, cfg.ReadyTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.addr.Store(addr)
	p.sup.event("shard %d replica %d: ready at %s", p.shard, p.replica, addr)
	return nil
}

// scanStdout watches a child's stdout for the serve banner and tees the
// stream to the configured sink.
func (p *Proc) scanStdout(r io.Reader, addrCh chan<- string) {
	defer p.wg.Done()
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if i := strings.Index(line, "serving http://"); i >= 0 {
				addr := strings.TrimPrefix(line[i:], "serving ")
				if j := strings.IndexAny(addr, " \t"); j >= 0 {
					addr = addr[:j]
				}
				addrCh <- addr
				sent = true
			}
		}
		if p.sup.cfg.Stdout != nil {
			fmt.Fprintf(p.sup.cfg.Stdout, "[s%dr%d] %s\n", p.shard, p.replica, line)
		}
	}
}

// monitor waits for the child to exit and — unless the exit was asked
// for — relaunches it after a jittered, exponentially growing backoff.
func (p *Proc) monitor(cmd *exec.Cmd) {
	defer p.wg.Done()
	err := cmd.Wait()
	p.mu.Lock()
	if p.cmd != cmd {
		// A newer generation is already running; this monitor is stale.
		p.mu.Unlock()
		return
	}
	p.cmd = nil
	alive := time.Since(p.started)
	if alive > 5*time.Second {
		p.crashes = 0 // a healthy run resets the crash streak
	}
	p.crashes++
	stop := p.killed || p.closed
	var delay time.Duration
	if !stop {
		cfg := p.sup.cfg
		delay = cfg.RestartBackoff << uint(min(p.crashes-1, 10))
		if delay > cfg.RestartBackoffMax {
			delay = cfg.RestartBackoffMax
		}
		delay += time.Duration(p.rng.Int63n(int64(delay)/2 + 1))
	}
	p.mu.Unlock()
	p.addr.Store("")
	if stop {
		return
	}
	p.sup.event("shard %d replica %d: exited (%v) after %s, restarting in %s", p.shard, p.replica, err, alive.Round(time.Millisecond), delay.Round(time.Millisecond))
	time.Sleep(delay)
	p.mu.Lock()
	stop = p.killed || p.closed || p.cmd != nil
	p.mu.Unlock()
	if stop {
		return
	}
	if lerr := p.launch(); lerr != nil {
		p.sup.event("procnode: restart failed: %v", lerr)
	}
}
