// Package fault is a process-wide failpoint registry: named points in
// the storage and serving code where tests (and the -fault flag or the
// daemon's test-only admin endpoint) can inject disk errors, latency,
// short writes or panics into live traffic — the tooling that lets the
// crash-safety and graceful-degradation claims be provoked rather than
// argued.
//
// A failpoint is disarmed until explicitly configured. The disarmed
// hot path is a single atomic load shared by every point (see Hit), so
// instrumented code pays nothing measurable in production builds; the
// benchmark and allocation guard in fault_test.go pin that down.
//
// Arming supports the shapes chaos testing needs:
//
//   - mode: return an error (EIO, ENOSPC, ...), perform a short write,
//     sleep (latency), or panic;
//   - after=N: pass through the first N hits, then start firing —
//     "the disk fills up mid-run";
//   - limit=M: fire at most M times, then pass through again — "the
//     glitch clears";
//   - p=0.3: once past After, fire with probability p from a seeded
//     stream, so probabilistic chaos runs stay reproducible.
//
// Specs are parsed from strings (flag / HTTP admin):
//
//	wal/append=error:err=ENOSPC,after=10,p=0.5;wal/fsync=latency:delay=50ms
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The failpoints the storage stack exposes. Sites are free to define
// more; the registry treats names as opaque.
const (
	// WALAppend fires inside wal.Log.Append, before the record frame is
	// written. Short-write mode writes a partial frame first.
	WALAppend = "wal/append"
	// WALFsync fires before every WAL fsync (per-append under
	// SyncAlways, ticker flushes, rotation seals, Close).
	WALFsync = "wal/fsync"
	// WALRotate fires when the active segment is sealed and the next one
	// opened.
	WALRotate = "wal/rotate"
	// SnapshotWrite fires inside wal.WriteSnapshot, before the snapshot
	// file is produced.
	SnapshotWrite = "wal/snapshot-write"
	// ManifestReplace fires inside wal.WriteManifest, before the
	// manifest is atomically replaced.
	ManifestReplace = "wal/manifest-replace"
	// StoreInsert and StoreDelete fire in gdb's write-ahead store
	// before the mutation reaches the WAL at all.
	StoreInsert = "store/insert"
	StoreDelete = "store/delete"
)

// Mode selects what an armed failpoint does when it fires.
type Mode int

const (
	// ModeError makes the hit site fail with Config.Err.
	ModeError Mode = iota
	// ModeShortWrite makes the hit site write only Config.ShortBytes
	// bytes of its payload and then fail with Config.Err (sites without
	// a payload treat it as ModeError).
	ModeShortWrite
	// ModeLatency makes the hit site sleep Config.Delay and proceed.
	ModeLatency
	// ModePanic makes the hit site panic (simulated crash mid-write).
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeShortWrite:
		return "short"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	}
	return "unknown"
}

// Config arms one failpoint.
type Config struct {
	Mode Mode
	// Err is the injected error for ModeError/ModeShortWrite (default
	// EIO).
	Err error
	// ShortBytes is how many payload bytes a ModeShortWrite hit site
	// writes before failing (clamped to the payload).
	ShortBytes int
	// Delay is slept before the hit proceeds (ModeLatency) or fails
	// (other modes, when set) — slow-then-failing disks exist too.
	Delay time.Duration
	// After arms the point only after this many hits have passed
	// through (0 = fire immediately).
	After uint64
	// Limit caps the number of fires; past it the point passes through
	// again (0 = unlimited).
	Limit uint64
	// P is the per-hit fire probability once past After (0 or 1 = fire
	// every time). Draws come from a stream seeded with Seed so runs
	// are reproducible.
	P float64
	// Seed seeds the probability stream (only meaningful with 0<P<1).
	Seed int64
}

// Action is what an armed failpoint asks the hit site to do. Sites
// receive nil from Hit when the point passes through.
type Action struct {
	// Err is the error to fail with (nil for pure latency).
	Err error
	// Short is >= 0 when the site should write only Short bytes of its
	// payload before failing (-1 = no short write).
	Short int
	// Delay is slept by Do before failing/proceeding.
	Delay  time.Duration
	panics bool
}

// Do performs the non-payload parts of the action — sleep, panic — and
// returns the error to fail with (nil means proceed). Nil-safe, so
// `if err := fault.Hit(p).Do(); err != nil` works at sites that do not
// support short writes.
func (a *Action) Do() error {
	if a == nil {
		return nil
	}
	if a.Delay > 0 {
		time.Sleep(a.Delay)
	}
	if a.panics {
		panic("fault: injected panic")
	}
	return a.Err
}

// point is one registered failpoint.
type point struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	hits  uint64 // hits while armed (pass-throughs included)
	fires uint64
}

var (
	// armed counts configured points; the disarmed fast path of Hit is
	// this single load.
	armed atomic.Int64

	mu     sync.Mutex
	points = map[string]*point{}

	// errNames maps spec error names to injectable errors. Built-ins
	// cover the disk-failure vocabulary; packages can register their own
	// (e.g. wal registers "corrupt").
	errNamesMu sync.Mutex
	errNames   = map[string]error{
		"EIO":    syscall.EIO,
		"ENOSPC": syscall.ENOSPC,
		"EROFS":  syscall.EROFS,
		"EBADF":  syscall.EBADF,
	}
)

// RegisterError makes err injectable under name in specs (e.g.
// "err=corrupt"). Later registrations of the same name win.
func RegisterError(name string, err error) {
	errNamesMu.Lock()
	defer errNamesMu.Unlock()
	errNames[name] = err
}

// namedError resolves a spec error name; unknown names become opaque
// injected errors so specs never fail on the error vocabulary.
func namedError(name string) error {
	errNamesMu.Lock()
	defer errNamesMu.Unlock()
	if err, ok := errNames[name]; ok {
		return err
	}
	return errors.New("fault: injected " + name)
}

// Hit checks the named failpoint. It returns nil when the point is
// disarmed or passes through; otherwise the Action the site must apply.
// The disarmed fast path is one atomic load — no map lookup, no lock,
// no allocation.
func Hit(name string) *Action {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return nil
	}
	return p.fire()
}

// fire applies the arming rules for one hit.
func (p *point) fire() *Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits++
	if p.hits <= p.cfg.After {
		return nil
	}
	if p.cfg.Limit > 0 && p.fires >= p.cfg.Limit {
		return nil
	}
	if p.cfg.P > 0 && p.cfg.P < 1 && p.rng.Float64() >= p.cfg.P {
		return nil
	}
	p.fires++
	act := &Action{Err: p.cfg.Err, Short: -1, Delay: p.cfg.Delay}
	switch p.cfg.Mode {
	case ModeLatency:
		act.Err = nil
	case ModePanic:
		act.panics = true
	case ModeShortWrite:
		act.Short = p.cfg.ShortBytes
	}
	return act
}

// Set arms (or re-arms) the named failpoint.
func Set(name string, cfg Config) {
	if cfg.Err == nil {
		cfg.Err = syscall.EIO
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Clear disarms the named failpoint (no-op when not armed).
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every failpoint. Tests defer it so armed points never
// leak across test cases.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(points)))
	points = map[string]*point{}
}

// Armed returns the number of configured failpoints.
func Armed() int { return int(armed.Load()) }

// PointStats is one failpoint's configuration and counters, for the
// serving layer's stats/metrics and the admin endpoint.
type PointStats struct {
	Name  string `json:"name"`
	Mode  string `json:"mode"`
	Error string `json:"error,omitempty"`
	// Hits counts checks since arming (pass-throughs included); Fires
	// counts hits that actually injected.
	Hits  uint64 `json:"hits"`
	Fires uint64 `json:"fires"`
	// Spec echoes the arming shape.
	After   uint64  `json:"after,omitempty"`
	Limit   uint64  `json:"limit,omitempty"`
	P       float64 `json:"p,omitempty"`
	DelayMS float64 `json:"delay_ms,omitempty"`
}

// Snapshot returns every armed failpoint's stats, sorted by name.
func Snapshot() []PointStats {
	mu.Lock()
	defer mu.Unlock()
	out := make([]PointStats, 0, len(points))
	for name, p := range points {
		p.mu.Lock()
		st := PointStats{
			Name:    name,
			Mode:    p.cfg.Mode.String(),
			Hits:    p.hits,
			Fires:   p.fires,
			After:   p.cfg.After,
			Limit:   p.cfg.Limit,
			P:       p.cfg.P,
			DelayMS: float64(p.cfg.Delay.Microseconds()) / 1000,
		}
		if p.cfg.Mode == ModeError || p.cfg.Mode == ModeShortWrite {
			st.Error = p.cfg.Err.Error()
		}
		p.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalFires sums fires across all armed points (the serving layer's
// skygraph_fault_injected_total).
func TotalFires() uint64 {
	var n uint64
	for _, st := range Snapshot() {
		n += st.Fires
	}
	return n
}

// Configure parses and applies a spec string:
//
//	point=mode[:key=value[,key=value...]][;point=mode...]
//
// Modes: error, short, latency, panic. Keys: err (EIO, ENOSPC, EROFS,
// EBADF, corrupt, or any name), bytes (short-write payload bytes),
// delay (Go duration), after, limit, p, seed. An empty spec is a no-op;
// "off" disarms everything, "point=off" disarms one point while the
// rest stay armed.
func Configure(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	if spec == "off" {
		Reset()
		return nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, mode, ok := strings.Cut(part, "="); ok && strings.TrimSpace(mode) == "off" {
			Clear(strings.TrimSpace(name))
			continue
		}
		name, cfg, err := parseOne(part)
		if err != nil {
			return err
		}
		Set(name, cfg)
	}
	return nil
}

// parseOne parses a single point=mode[:opts] clause.
func parseOne(part string) (string, Config, error) {
	name, rest, ok := strings.Cut(part, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return "", Config{}, fmt.Errorf("fault: bad spec %q (want point=mode[:opts])", part)
	}
	modeStr, opts, _ := strings.Cut(rest, ":")
	var cfg Config
	switch strings.TrimSpace(modeStr) {
	case "error":
		cfg.Mode = ModeError
	case "short":
		cfg.Mode = ModeShortWrite
	case "latency":
		cfg.Mode = ModeLatency
	case "panic":
		cfg.Mode = ModePanic
	default:
		return "", Config{}, fmt.Errorf("fault: unknown mode %q in %q (want error, short, latency or panic)", modeStr, part)
	}
	if opts != "" {
		for _, kv := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return "", Config{}, fmt.Errorf("fault: bad option %q in %q", kv, part)
			}
			var err error
			switch k {
			case "err":
				cfg.Err = namedError(v)
			case "bytes":
				cfg.ShortBytes, err = strconv.Atoi(v)
			case "delay":
				cfg.Delay, err = time.ParseDuration(v)
			case "after":
				cfg.After, err = strconv.ParseUint(v, 10, 64)
			case "limit":
				cfg.Limit, err = strconv.ParseUint(v, 10, 64)
			case "p":
				cfg.P, err = strconv.ParseFloat(v, 64)
			case "seed":
				cfg.Seed, err = strconv.ParseInt(v, 10, 64)
			default:
				return "", Config{}, fmt.Errorf("fault: unknown option %q in %q", k, part)
			}
			if err != nil {
				return "", Config{}, fmt.Errorf("fault: bad value for %q in %q: %v", k, part, err)
			}
		}
	}
	if (cfg.Mode == ModeLatency) && cfg.Delay <= 0 {
		return "", Config{}, fmt.Errorf("fault: latency mode needs delay= in %q", part)
	}
	if cfg.P < 0 || cfg.P > 1 {
		return "", Config{}, fmt.Errorf("fault: p must be in [0,1] in %q", part)
	}
	return name, cfg, nil
}
