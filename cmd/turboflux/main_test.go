package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A three-vertex path query u0(1) -0-> u1(2) -1-> u2(3) over a small
// graph, and a stream that both creates and destroys matches.
const (
	testGraph = `v 1 1
v 2 1
v 10 2
v 11 2
v 20 3
v 21 3
i 1 0 10
i 10 1 20
`
	testQuery = `v 0 1
v 1 2
v 2 3
i 0 0 1
i 1 1 2
`
	testStream = `i 2 0 10
i 10 1 21
i 1 0 11
i 11 1 20
d 1 0 10
i 2 0 11
d 10 1 20
`
	// testStream2 continues testStream: it restores deleted edges and
	// removes a live one.
	testStream2 = `i 1 0 10
i 10 1 20
d 2 0 11
`
)

// writeInputs writes the named files into a fresh directory and returns
// their paths by name.
func writeInputs(t *testing.T, files map[string]string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := make(map[string]string, len(files))
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}
	return paths
}

// runCLI runs the command with c and returns its output.
func runCLI(t *testing.T, c config) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, c); err != nil {
		t.Fatalf("run(%+v): %v", c, err)
	}
	return out.String()
}

// cutLine removes the first line of s, which must start with prefix.
func cutLine(t *testing.T, s, prefix string) string {
	t.Helper()
	first, rest, _ := strings.Cut(s, "\n")
	if !strings.HasPrefix(first, prefix) {
		t.Fatalf("first line %q, want prefix %q", first, prefix)
	}
	return rest
}

// lastLine returns the final line of s.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

// TestRunMemoryAndDurableAgree checks that in-memory mode and -data-dir
// mode print byte-identical plans, match transcripts and totals.
func TestRunMemoryAndDurableAgree(t *testing.T) {
	in := writeInputs(t, map[string]string{"g0": testGraph, "q": testQuery, "s": testStream})
	c := config{graph: in["g0"], query: in["q"], stream: in["s"], fsync: "none", initial: true, explain: true}
	mem := runCLI(t, c)
	for _, want := range []string{"# initial matches: 1\n", "+ u0=2 u1=10 u2=20\n", "- u0=1 u1=10 u2=21\n",
		"# stream: 7 updates, 5 positive, 3 negative"} {
		if !strings.Contains(mem, want) {
			t.Fatalf("in-memory output lacks %q:\n%s", want, mem)
		}
	}

	c.dataDir = filepath.Join(t.TempDir(), "state")
	dur := cutLine(t, runCLI(t, c), "# durable: fresh store in ")
	if dur != mem {
		t.Fatalf("durable output differs from in-memory output\ndurable:\n%s\nin-memory:\n%s", dur, mem)
	}
}

// TestRunDurableRecovers checks that a second -data-dir run recovers the
// first run's graph: it reports the recovery, and streaming on from the
// recovered graph ends with the same totals and DCG size as an in-memory
// run over the same graph.
func TestRunDurableRecovers(t *testing.T) {
	in := writeInputs(t, map[string]string{
		"g0": testGraph, "q": testQuery, "s": testStream, "s2": testStream2,
		"g1": testGraph + testStream, // the graph the first run leaves behind
	})
	c := config{graph: in["g0"], query: in["q"], stream: in["s"], fsync: "none",
		dataDir: filepath.Join(t.TempDir(), "state")}
	runCLI(t, c)

	c.graph, c.stream = "", in["s2"]
	second := cutLine(t, runCLI(t, c), "# durable: recovered ")
	want := runCLI(t, config{graph: in["g1"], query: in["q"], stream: in["s2"], quiet: true})
	if !strings.HasPrefix(want, "# stream: 3 updates, 3 positive, 1 negative, DCG ") {
		t.Fatalf("in-memory continuation = %q", want)
	}
	if got := lastLine(second); got != lastLine(want) {
		t.Fatalf("recovered run ends with %q, in-memory run over the same graph with %q", got, lastLine(want))
	}
}
