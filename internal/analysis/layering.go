package analysis

import (
	"fmt"
	"strconv"
	"strings"
)

// Layering enforces the package dependency architecture. The algorithm
// packages (sssp, core, ...) must stay free of presentation (plot) and
// experiment-harness concerns so they can be reused, benchmarked, and
// verified in isolation; the base layers (graph, parallel, sim, sgd, ...)
// must not import upward, which keeps the dependency graph acyclic and the
// hot paths leaf-like. Rules are expressed on module-relative package paths.
type Layering struct{}

// layerRule forbids packages under Prefix from importing anything under one
// of the Forbidden prefixes (module-relative, "/"-separated).
type layerRule struct {
	prefix    string
	forbidden []string
	reason    string
}

// presentation are the layers no algorithm or base package may depend on.
var presentation = []string{"internal/plot", "internal/harness", "cmd", "examples"}

// upward are the algorithm layers no base package may depend on.
var upward = []string{"internal/sssp", "internal/core"}

var layerRules = []layerRule{
	// Algorithm layer: kernels and controller stay presentation-free.
	{"internal/sssp", presentation, "algorithm packages must not depend on presentation or harness layers"},
	{"internal/core", presentation, "algorithm packages must not depend on presentation or harness layers"},

	// Base layer: no presentation, and no importing the algorithms built on
	// top of them (keeps the graph acyclic by construction).
	{"internal/graph", append(upward, presentation...), "base layers must not import upward"},
	{"internal/parallel", append(upward, presentation...), "base layers must not import upward"},
	{"internal/sim", append(upward, presentation...), "base layers must not import upward"},
	{"internal/sgd", append(upward, presentation...), "base layers must not import upward"},
	{"internal/frontier", append(upward, presentation...), "base layers must not import upward"},
	{"internal/gen", append(upward, presentation...), "base layers must not import upward"},
	{"internal/metrics", append(upward, presentation...), "base layers must not import upward"},
	{"internal/dvfs", append(upward, presentation...), "base layers must not import upward"},
	{"internal/power", append(upward, presentation...), "base layers must not import upward"},
	{"internal/fp", append(upward, presentation...), "base layers must not import upward"},
	{"internal/obs", append(upward, presentation...), "base layers must not import upward"},
	{"internal/flight", append(upward, presentation...), "base layers must not import upward"},

	// Nothing in internal may reach into commands.
	{"internal", []string{"cmd", "examples"}, "library packages must not import commands"},
}

func (*Layering) ID() string { return "layering" }

func (*Layering) Doc() string {
	return "package-layering: algorithm/base packages must not import plot, harness, or cmd layers"
}

func (r *Layering) Check(p *Pass) []Finding {
	rel := p.Rel()
	if rel == "" {
		return nil
	}
	var out []Finding
	seen := make(map[string]bool) // one finding per (import, rule) per package
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !underPrefix(path, p.ModPath) {
				continue
			}
			impRel := strings.TrimPrefix(path, p.ModPath+"/")
			for _, rule := range layerRules {
				if !underPrefix(rel, rule.prefix) {
					continue
				}
				for _, forb := range rule.forbidden {
					if !underPrefix(impRel, forb) {
						continue
					}
					key := impRel + "|" + rule.prefix + "|" + forb
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, Finding{
						Pos:      p.Position(imp.Pos()),
						Rule:     r.ID(),
						Severity: Error,
						Message: fmt.Sprintf("package %s must not import %s: %s",
							rel, impRel, rule.reason),
					})
				}
			}
		}
	}
	return out
}

// underPrefix reports whether the "/"-separated path is the prefix itself or
// lies underneath it.
func underPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
