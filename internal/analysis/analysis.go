// Package analysis is a stdlib-only static-analysis framework (built on
// go/ast, go/parser, go/token, go/types) that encodes this repository's
// correctness invariants as machine-checked lint rules:
//
//   - floatcmp:    no ==/!= on floating-point values (δ thresholds, model
//     parameters) outside the approved epsilon helpers in internal/fp
//   - walltime:    no wall-clock calls (time.Now etc.) inside kernel
//     callbacks whose cost is charged to the simulated machine
//   - hotalloc:    no fmt calls, string concatenation, or interface boxing
//     inside kernel callbacks covered by the zero-allocation gates
//   - layering:    algorithm packages must not import presentation or
//     harness layers, and base layers must not import upward
//   - poolcapture: no unguarded writes to captured shared variables inside
//     parallel.Pool kernel callbacks
//   - errcheck:    no discarded error returns (including deferred calls) in
//     non-test code
//   - determinism: no map ranges, multi-case selects, or transitive
//     wall-clock/rand reads in flight-replayed code
//   - atomicmix:   no mixing of sync/atomic and plain accesses on the same
//     variable or field within a package
//   - leakspawn:   goroutine spawns must be bounded and channel ops must
//     have an unblock path
//   - hotescape:   no unbounded append growth or escaping loop closures on
//     //hot:alloc-free paths and in kernel callbacks
//
// The flow-aware rules are built on two module-wide structures, both
// stdlib-only: an intra-procedural control-flow graph (cfg.go) and a
// CHA-expanded call graph over every package in the module (callgraph.go).
//
// The framework also polices its own escape hatch: a lint:ignore directive
// that suppressed nothing during a full run is reported under the
// "staleignore" pseudo-rule, so suppressions cannot outlive the findings
// that justified them.
//
// The framework deliberately avoids golang.org/x/tools: packages are loaded
// and type-checked with a small module-aware loader (see loader.go), and
// each rule is a Checker run over a type-checked Pass. cmd/lint is the CLI
// front end; scripts/check.sh wires it into the tier-2 verification gate.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Severity classifies a finding. Both severities fail the lint gate; the
// distinction exists so reports read correctly and future rules can demote
// heuristic checks without changing the findings model.
type Severity int

const (
	// Warning marks heuristic findings that may need a lint:ignore with a
	// stated reason rather than a code change.
	Warning Severity = iota
	// Error marks violations of hard invariants.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one rule violation at one source position.
type Finding struct {
	Pos      token.Position
	Rule     string
	Severity Severity
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s] %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Severity, f.Rule, f.Message)
}

// Checker is one lint rule. Checkers are stateless: Check may be called for
// many packages and must derive everything from the Pass.
type Checker interface {
	// ID is the short rule identifier used in reports and lint:ignore
	// directives.
	ID() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
	// Check inspects one type-checked package and returns its findings.
	Check(p *Pass) []Finding
}

// DefaultCheckers returns the full rule set in report order.
func DefaultCheckers() []Checker {
	return []Checker{
		&FloatCmp{},
		&WallTime{},
		&HotAlloc{},
		&Layering{},
		&PoolCapture{},
		&ErrCheck{},
		&Determinism{},
		&AtomicMix{},
		&LeakSpawn{},
		&HotEscape{},
	}
}

// CheckerByID returns the named checker from DefaultCheckers, or nil.
func CheckerByID(id string) Checker {
	for _, c := range DefaultCheckers() {
		if c.ID() == id {
			return c
		}
	}
	return nil
}

// Run loads the module containing dir, applies the checkers to every
// non-test package, and returns all findings sorted by position. Findings
// suppressed by a "//lint:ignore <rule> <reason>" comment on the same or
// preceding line are dropped; directives that suppress nothing are
// themselves reported under the "staleignore" pseudo-rule (see
// staleIgnoreFindings).
func Run(dir string, checkers []Checker) ([]Finding, error) {
	mod, err := Load(dir)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, p := range mod.Pkgs {
		for _, c := range checkers {
			for _, f := range c.Check(p) {
				if p.ignored(f.Pos, c.ID()) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	for _, p := range mod.Pkgs {
		out = append(out, staleIgnoreFindings(p, checkers)...)
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by file, line, column and rule. The sort is
// stable, so findings that tie on all four keep their emission order.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// StaleIgnoreRule is the pseudo-rule ID under which Run reports lint:ignore
// directives that suppressed nothing. It is framework-level, not a Checker:
// staleness is only known after every active rule has run.
const StaleIgnoreRule = "staleignore"

// staleIgnoreFindings reports the suppression debt in one package after the
// checkers ran: listed rules that suppressed no finding, and rule names no
// checker answers to. A rule is only judged when it was active in this run —
// under a -rule subset, directives for the inactive rules are left alone.
// An "all" directive is judged only when the active set covers the full
// default set, since any missing rule could be the one it suppresses.
func staleIgnoreFindings(p *Pass, checkers []Checker) []Finding {
	active := make(map[string]bool, len(checkers))
	for _, c := range checkers {
		active[c.ID()] = true
	}
	fullSet := true
	known := map[string]bool{}
	for _, c := range DefaultCheckers() {
		known[c.ID()] = true
		if !active[c.ID()] {
			fullSet = false
		}
	}
	var out []Finding
	flag := func(d *ignoreDirective, msg string) {
		out = append(out, Finding{Pos: d.pos, Rule: StaleIgnoreRule, Severity: Warning, Message: msg})
	}
	for _, lines := range p.ignores {
		for _, d := range lines {
			rules := make([]string, 0, len(d.rules))
			for r := range d.rules {
				rules = append(rules, r)
			}
			sort.Strings(rules)
			for _, r := range rules {
				switch {
				case r == "all":
					if fullSet && len(d.used) == 0 {
						flag(d, "lint:ignore all suppresses no findings; remove the directive or narrow it to a real one")
					}
				case !known[r]:
					flag(d, fmt.Sprintf("lint:ignore names unknown rule %q; fix the rule ID or remove it", r))
				case active[r] && !d.used[r]:
					flag(d, fmt.Sprintf("lint:ignore %s suppresses no %s findings; the code below is clean — remove the directive", r, r))
				}
			}
		}
	}
	// p.ignores is a map, so the loop above visits directives in random
	// order; sort so direct callers see the same order on every run.
	sortFindings(out)
	return out
}
