package core

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"energysssp/internal/flight"
)

// flightSeedLines is how many lines of the committed reference log seed
// the corpus: the header plus enough records to leave the bootstrap window.
const flightSeedLines = 9

// rhoSeed is a rho near-far log: a header with a far-queue strategy and
// bucket width, and two records, the second a phase advance.
const rhoSeed = `{"schema":"energysssp-flight","version":2,"algorithm":"nearfar","vertices":100,"edges":300,"source":0,"fixedDelta":1681,"farQueue":"rho","farWidth":52}
{"k":0,"x1":1,"x2":2,"x3":2,"x4":1,"farLen":1,"farSize":1,"deltaIn":1681,"rawDelta":1681,"deltaOut":1681,"jumpMin":-1,"simNs":39004,"energyJ":0.00015}
{"k":1,"x1":1,"x2":3,"x3":3,"x4":0,"farLen":3,"farSize":0,"deltaIn":1681,"rawDelta":1733,"deltaOut":1733,"appliedDelta":52,"jumpMin":-1,"simNs":78008,"energyJ":0.0003}
`

// FuzzFlightLog feeds arbitrary bytes through the flight-log reader and,
// when it accepts them, through every consumer of a log: replay, the
// dashboard, the detector and run-diff. A flight log is untrusted input
// (a file handed to cmd/flight, or streamed from /flight), so none of them
// may panic on it.
func FuzzFlightLog(f *testing.F) {
	ref, err := os.Open("../../results/flight_cal_tk1.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	var head bytes.Buffer
	sc := bufio.NewScanner(ref)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for i := 0; i < flightSeedLines && sc.Scan(); i++ {
		head.Write(sc.Bytes())
		head.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(head.Bytes())
	f.Add([]byte(rhoSeed))

	base, err := flight.ReadJSONL(strings.NewReader(rhoSeed))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		l, err := flight.ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		if _, err := ReplayFlight(l); err != nil {
			t.Log(err) // rejecting a log is fine; panicking is not
		}
		if err := flight.WriteDashboard(io.Discard, l); err != nil {
			t.Fatal(err)
		}
		flight.Detect(l, flight.DetectOptions{})
		flight.DiffLogs(l, l)
		flight.DiffLogs(base, l)
	})
}
