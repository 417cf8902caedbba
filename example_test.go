package energysssp_test

import (
	"fmt"

	energysssp "energysssp"
)

// The minimal workflow: generate a graph, solve with the self-tuning
// algorithm, read a distance.
func ExampleRun() {
	g := energysssp.Grid(8, 8, 5, 5, 1) // all weights 5
	out, err := energysssp.Run(g, 0, energysssp.RunConfig{
		Algorithm: energysssp.SelfTuning,
		SetPoint:  32,
	})
	if err != nil {
		panic(err)
	}
	// Corner to corner of an 8x8 grid: 14 hops of weight 5.
	fmt.Println(out.Dist[63])
	// Output: 70
}

// Attaching a simulated device yields deterministic time/energy numbers.
func ExampleRun_simulated() {
	g := energysssp.Grid(16, 16, 1, 9, 2)
	out, err := energysssp.Run(g, 0, energysssp.RunConfig{
		Algorithm: energysssp.NearFar,
		Delta:     8,
		Device:    "TK1",
		Freq:      "852/924",
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.SimTime > 0, out.EnergyJ > 0, out.Reached)
	// Output: true true 256
}

// Shortest paths are derived from any solver's distances.
func ExampleShortestPath() {
	g, _ := energysssp.NewGraph(4, []energysssp.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 10},
	})
	out, err := energysssp.Run(g, 0, energysssp.RunConfig{Paths: true})
	if err != nil {
		panic(err)
	}
	path, _ := energysssp.ShortestPath(out, 3)
	fmt.Println(path, out.Dist[3])
	// Output: [0 1 2 3] 3
}

// ParseFreq understands the paper's "core/mem" DVFS notation.
func ExampleParseFreq() {
	f, _ := energysssp.ParseFreq("852/924")
	fmt.Println(f.CoreMHz, f.MemMHz, f)
	// Output: 852 924 852/924
}
