// Package fault is the declarative, seed-deterministic fault-injection
// subsystem: a Plan composes per-source fault clauses — transient stalls,
// burst storms, mid-stream disconnects with replay-vs-restart reconnect
// semantics, permanent death — plus replica definitions for failover. Plans
// are injected at the source layer in virtual time, so every fault scenario
// is exactly repeatable: equal plan, seeds and configuration produce
// bit-identical runs, and an empty plan leaves the execution untouched.
//
// A Plan is read-only once handed to a run; the same Plan value may back any
// number of concurrent simulations.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dqs/internal/sim"
)

// Kind classifies one fault clause.
type Kind int

// Fault clause kinds.
const (
	// Stall delays the production of one row by an extra Down on top of its
	// regular random delay (a transient wrapper hiccup).
	Stall Kind = iota
	// Burst overrides the mean waiting time with Wait for Rows rows starting
	// at Row (a load storm on the wrapper).
	Burst
	// Disconnect interrupts delivery at Row for Down: the connection drops
	// just as the row would be sent and comes back Down later. Replay
	// semantics (Restart false) resume the stream mid-row; restart semantics
	// re-pay the production time of the already delivered prefix, as a
	// wrapper that must re-run its sub-query from the start does.
	Disconnect
	// Kill stops the source permanently at Row: the row and everything after
	// it are never delivered. Recovery, if any, is the engine's job (replica
	// failover or partial results).
	Kill
)

// String names the clause kind (also the spec keyword).
func (k Kind) String() string {
	switch k {
	case Stall:
		return "stall"
	case Burst:
		return "burst"
	case Disconnect:
		return "drop"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Clause is one fault striking one source at a row boundary.
type Clause struct {
	// Source names the relation whose wrapper the fault strikes.
	Source string
	// Kind selects the fault.
	Kind Kind
	// Row is the production boundary where the fault strikes (0-based).
	Row int
	// Rows is the length of a Burst in rows.
	Rows int
	// Wait is the mean waiting time in force during a Burst.
	Wait time.Duration
	// Down is the extra delay of a Stall or the outage length of a
	// Disconnect.
	Down time.Duration
	// Restart selects restart reconnect semantics for a Disconnect.
	Restart bool
}

// Replica declares a standby source the engine may fail over to when the
// primary is declared dead: same relation, same data, its own delivery rate.
type Replica struct {
	// Source names the primary relation the replica stands in for.
	Source string
	// Wait is the replica's constant mean waiting time; zero inherits the
	// primary's configured mean wait.
	Wait time.Duration
	// Connect is the virtual time needed to establish the replica
	// connection at failover.
	Connect time.Duration
	// Restart marks a cold replica: it re-pays the production time of the
	// rows the primary already delivered (it re-runs the sub-query from the
	// start and discards the prefix) before resuming the stream.
	Restart bool
}

// Plan is a composed fault scenario: any number of clauses and replicas
// across any number of sources. The zero Plan (and a nil *Plan) is the
// fault-free scenario and leaves execution bit-identical to no plan at all.
type Plan struct {
	Clauses  []Clause
	Replicas []Replica
}

// Active reports whether the plan injects anything. Nil-safe.
func (p *Plan) Active() bool {
	return p != nil && (len(p.Clauses) > 0 || len(p.Replicas) > 0)
}

// Validate reports the first invalid clause or replica.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	type key struct {
		source string
		row    int
	}
	rows := make(map[key]bool)
	killAt := make(map[string]int)
	for _, c := range p.Clauses {
		if c.Source == "" {
			return fmt.Errorf("fault: clause with empty source")
		}
		if c.Row < 0 {
			return fmt.Errorf("fault: %s %s at negative row %d", c.Source, c.Kind, c.Row)
		}
		k := key{c.Source, c.Row}
		if rows[k] {
			return fmt.Errorf("fault: %s has two clauses at row %d; one fault per row boundary", c.Source, c.Row)
		}
		rows[k] = true
		switch c.Kind {
		case Stall:
			if c.Down <= 0 {
				return fmt.Errorf("fault: %s stall@%d needs a positive duration, got %v", c.Source, c.Row, c.Down)
			}
		case Burst:
			if c.Rows <= 0 {
				return fmt.Errorf("fault: %s burst@%d needs a positive row count, got %d", c.Source, c.Row, c.Rows)
			}
			if c.Wait < 0 {
				return fmt.Errorf("fault: %s burst@%d has negative waiting time %v", c.Source, c.Row, c.Wait)
			}
			if c.Wait > sim.MaxWait {
				return fmt.Errorf("fault: %s burst@%d waiting time %v: %w", c.Source, c.Row, c.Wait, sim.ErrWaitTooLarge)
			}
		case Disconnect:
			if c.Down <= 0 {
				return fmt.Errorf("fault: %s drop@%d needs a positive outage, got %v", c.Source, c.Row, c.Down)
			}
		case Kill:
			if at, dup := killAt[c.Source]; dup {
				return fmt.Errorf("fault: %s killed twice (rows %d and %d)", c.Source, at, c.Row)
			}
			killAt[c.Source] = c.Row
		default:
			return fmt.Errorf("fault: %s has unknown clause kind %d", c.Source, int(c.Kind))
		}
	}
	for _, c := range p.Clauses {
		if at, dead := killAt[c.Source]; dead && c.Kind != Kill && c.Row >= at {
			return fmt.Errorf("fault: %s %s@%d is unreachable after kill@%d", c.Source, c.Kind, c.Row, at)
		}
	}
	seen := make(map[string]bool)
	for _, r := range p.Replicas {
		if r.Source == "" {
			return fmt.Errorf("fault: replica with empty source")
		}
		if seen[r.Source] {
			return fmt.Errorf("fault: %s has two replicas; one standby per source", r.Source)
		}
		seen[r.Source] = true
		if r.Wait < 0 || r.Connect < 0 {
			return fmt.Errorf("fault: %s replica has negative timing (wait=%v connect=%v)", r.Source, r.Wait, r.Connect)
		}
		if r.Wait > sim.MaxWait {
			return fmt.Errorf("fault: %s replica waiting time %v: %w", r.Source, r.Wait, sim.ErrWaitTooLarge)
		}
	}
	return nil
}

// ClausesFor returns the clauses striking the named source, sorted by row —
// the compiled per-source schedule. The slice is freshly allocated; callers
// own it. Nil-safe.
func (p *Plan) ClausesFor(source string) []Clause {
	if p == nil {
		return nil
	}
	var out []Clause
	for _, c := range p.Clauses {
		if c.Source == source {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

// ReplicaFor returns the standby declaration of the named source. Nil-safe.
func (p *Plan) ReplicaFor(source string) (Replica, bool) {
	if p == nil {
		return Replica{}, false
	}
	for _, r := range p.Replicas {
		if r.Source == source {
			return r, true
		}
	}
	return Replica{}, false
}

// Sources returns the sorted distinct sources the plan mentions. Nil-safe.
func (p *Plan) Sources() []string {
	if p == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, c := range p.Clauses {
		add(c.Source)
	}
	for _, r := range p.Replicas {
		add(r.Source)
	}
	sort.Strings(out)
	return out
}

// String renders the plan in the Parse spec grammar.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	for _, c := range p.Clauses {
		switch c.Kind {
		case Stall:
			parts = append(parts, fmt.Sprintf("%s:stall@%d+%v", c.Source, c.Row, c.Down))
		case Burst:
			parts = append(parts, fmt.Sprintf("%s:burst@%d+%dx%v", c.Source, c.Row, c.Rows, c.Wait))
		case Disconnect:
			s := fmt.Sprintf("%s:drop@%d+%v", c.Source, c.Row, c.Down)
			if c.Restart {
				s += ",restart"
			}
			parts = append(parts, s)
		case Kill:
			parts = append(parts, fmt.Sprintf("%s:kill@%d", c.Source, c.Row))
		}
	}
	for _, r := range p.Replicas {
		s := fmt.Sprintf("%s:replica", r.Source)
		if r.Wait > 0 {
			s += fmt.Sprintf(",wait=%v", r.Wait)
		}
		if r.Connect > 0 {
			s += fmt.Sprintf(",connect=%v", r.Connect)
		}
		if r.Restart {
			s += ",restart"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// Script is one source's compiled fault schedule: its clauses in row order
// plus the dedicated fault RNG (restart re-draws, so fault randomness never
// perturbs the base delay stream).
type Script struct {
	Clauses []Clause
	RNG     *sim.RNG
}

// Parse builds a plan from a compact spec string, the grammar of the CLI
// -faults flag:
//
//	spec    := clause (';' clause)*
//	clause  := REL ':' body
//	body    := 'stall@' ROW '+' DUR            — transient stall
//	         | 'burst@' ROW '+' N 'x' DUR      — N rows at mean wait DUR
//	         | 'drop@'  ROW '+' DUR [',restart'] — disconnect, back DUR later
//	         | 'kill@'  ROW                    — permanent death
//	         | 'replica' (',' opt)*            — standby for failover
//	opt     := 'wait=' DUR | 'connect=' DUR | 'restart'
//
// Durations use Go syntax (150ms, 2s, 300us). Example:
//
//	C:burst@100+500x300us;D:drop@5000+2s;A:kill@9000;A:replica,connect=50ms
//
// The returned plan is validated.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, raw := range strings.Split(spec, ";") {
		part := strings.TrimSpace(raw)
		if part == "" {
			continue
		}
		src, body, ok := strings.Cut(part, ":")
		if !ok || src == "" {
			return nil, fmt.Errorf("fault: clause %q: want SOURCE:BODY", part)
		}
		switch {
		case strings.HasPrefix(body, "stall@"):
			row, rest, err := parseRowPlus(body[len("stall@"):], part)
			if err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(rest)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad stall duration: %v", part, err)
			}
			p.Clauses = append(p.Clauses, Clause{Source: src, Kind: Stall, Row: row, Down: d})
		case strings.HasPrefix(body, "burst@"):
			row, rest, err := parseRowPlus(body[len("burst@"):], part)
			if err != nil {
				return nil, err
			}
			nStr, dStr, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("fault: clause %q: want burst@ROW+NxDUR", part)
			}
			n, err := strconv.Atoi(nStr)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad burst row count %q", part, nStr)
			}
			d, err := time.ParseDuration(dStr)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad burst waiting time: %v", part, err)
			}
			p.Clauses = append(p.Clauses, Clause{Source: src, Kind: Burst, Row: row, Rows: n, Wait: d})
		case strings.HasPrefix(body, "drop@"):
			spec := body[len("drop@"):]
			restart := false
			if s, ok := strings.CutSuffix(spec, ",restart"); ok {
				spec, restart = s, true
			}
			row, rest, err := parseRowPlus(spec, part)
			if err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(rest)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad outage duration: %v", part, err)
			}
			p.Clauses = append(p.Clauses, Clause{Source: src, Kind: Disconnect, Row: row, Down: d, Restart: restart})
		case strings.HasPrefix(body, "kill@"):
			row, err := strconv.Atoi(body[len("kill@"):])
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad kill row", part)
			}
			p.Clauses = append(p.Clauses, Clause{Source: src, Kind: Kill, Row: row})
		case body == "replica" || strings.HasPrefix(body, "replica,"):
			r := Replica{Source: src}
			if body != "replica" {
				for _, opt := range strings.Split(body[len("replica,"):], ",") {
					switch {
					case opt == "restart":
						r.Restart = true
					case strings.HasPrefix(opt, "wait="):
						d, err := time.ParseDuration(opt[len("wait="):])
						if err != nil {
							return nil, fmt.Errorf("fault: clause %q: bad replica wait: %v", part, err)
						}
						r.Wait = d
					case strings.HasPrefix(opt, "connect="):
						d, err := time.ParseDuration(opt[len("connect="):])
						if err != nil {
							return nil, fmt.Errorf("fault: clause %q: bad replica connect: %v", part, err)
						}
						r.Connect = d
					default:
						return nil, fmt.Errorf("fault: clause %q: unknown replica option %q", part, opt)
					}
				}
			}
			p.Replicas = append(p.Replicas, r)
		default:
			return nil, fmt.Errorf("fault: clause %q: unknown fault %q (want stall@, burst@, drop@, kill@ or replica)", part, body)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseRowPlus splits "ROW+REST" and parses the row.
func parseRowPlus(s, clause string) (int, string, error) {
	rowStr, rest, ok := strings.Cut(s, "+")
	if !ok {
		return 0, "", fmt.Errorf("fault: clause %q: want ROW+DURATION", clause)
	}
	row, err := strconv.Atoi(rowStr)
	if err != nil {
		return 0, "", fmt.Errorf("fault: clause %q: bad row %q", clause, rowStr)
	}
	return row, rest, nil
}

// Outage is one delivery interruption observed on a source, in virtual
// time. Permanent outages (death) have no To.
type Outage struct {
	From, To  time.Duration
	Permanent bool
}

// SeedFor derives the fault-stream seed of one named source: an FNV-1a hash
// of the name folded into the configured fault seed with SplitMix mixing.
// Fault randomness is keyed by source name, not by construction order, so a
// scenario's draws are stable under plan edits and query additions.
func SeedFor(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := uint64(seed)*0x9E3779B97F4A7C15 + h
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
