package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// layering fixtures: stub packages for each layer the rules reference.
var layerStubs = map[string]map[string]string{
	fixtureMod + "/internal/plot":    {"plot.go": "package plot\n\nconst X = 1\n"},
	fixtureMod + "/internal/harness": {"harness.go": "package harness\n\nconst X = 1\n"},
	fixtureMod + "/internal/graph":   {"graph.go": "package graph\n\nconst X = 1\n"},
	fixtureMod + "/internal/sssp":    {"sssp.go": "package sssp\n\nconst X = 1\n"},
	fixtureMod + "/cmd/tool":         {"tool.go": "package tool\n\nconst X = 1\n"},
}

func layeringFixture(t *testing.T, path, src string) *Pass {
	t.Helper()
	pkgs := make(map[string]map[string]string, len(layerStubs)+1)
	for p, files := range layerStubs {
		pkgs[p] = files
	}
	pkgs[path] = map[string]string{"x.go": src}
	return checkFixture(t, pkgs, path)
}

func TestLayering(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []int
	}{
		{
			name: "algorithm package must not import plot",
			path: fixtureMod + "/internal/core",
			src: `package core
import _ "example.com/fix/internal/plot"
`,
			want: []int{2},
		},
		{
			name: "algorithm package must not import harness",
			path: fixtureMod + "/internal/sssp/inner",
			src: `package inner
import _ "example.com/fix/internal/harness"
`,
			want: []int{2},
		},
		{
			name: "base layer must not import upward into sssp",
			path: fixtureMod + "/internal/graph/sub",
			src: `package sub
import _ "example.com/fix/internal/sssp"
`,
			want: []int{2},
		},
		{
			name: "no internal package may import cmd",
			path: fixtureMod + "/internal/trace",
			src: `package trace
import _ "example.com/fix/cmd/tool"
`,
			want: []int{2},
		},
		{
			name: "algorithm package may import base layers",
			path: fixtureMod + "/internal/core",
			src: `package core
import _ "example.com/fix/internal/graph"
`,
		},
		{
			name: "commands may import anything",
			path: fixtureMod + "/cmd/other",
			src: `package other
import (
	_ "example.com/fix/internal/harness"
	_ "example.com/fix/internal/plot"
)
`,
		},
		{
			name: "stdlib imports are never layering findings",
			path: fixtureMod + "/internal/sssp/other",
			src: `package other
import _ "sort"
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := layeringFixture(t, c.path, c.src)
			expectLines(t, runRule(t, &Layering{}, p), c.want...)
		})
	}
}

// TestLayerRulesNameLivePackages walks the module and checks that every path
// a layering rule names, as its prefix or as a forbidden import, holds at
// least one Go package. A rule left behind for a deleted package matches
// nothing and would otherwise go unnoticed.
func TestLayerRulesNameLivePackages(t *testing.T) {
	const root = "../.."
	pkgDirs := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not part of this one
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgDirs[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	live := func(prefix string) bool {
		for dir := range pkgDirs {
			if underPrefix(dir, prefix) {
				return true
			}
		}
		return false
	}
	for _, rule := range layerRules {
		if !live(rule.prefix) {
			t.Errorf("layering rule for %q names no package of the module", rule.prefix)
		}
		for _, forb := range rule.forbidden {
			if !live(forb) {
				t.Errorf("layering rule for %q forbids %q, which names no package of the module", rule.prefix, forb)
			}
		}
	}
}
