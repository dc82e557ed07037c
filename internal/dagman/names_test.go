package dagman

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dag"
)

func mustGraph(t *testing.T, text string) (*File, *dag.Frozen) {
	t.Helper()
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return f, g
}

// adjacency lists every node's name, children and parents in order.
func adjacency(g *dag.Frozen) []string {
	var out []string
	for v := 0; v < g.NumNodes(); v++ {
		out = append(out, fmt.Sprintf("%s %v %v", g.Name(v), g.Children(v), g.Parents(v)))
	}
	return out
}

func TestForwardReferenceBuildsSameGraph(t *testing.T) {
	jobs := "Job a a.sub\nJob b b.sub\nJob c c.sub\n"
	deps := "Parent a Child c b\nParent b Child c\nParent a Child c\n"
	early, before := mustGraph(t, deps+jobs)
	late, after := mustGraph(t, jobs+deps)
	if got, want := adjacency(before), adjacency(after); !reflect.DeepEqual(got, want) {
		t.Fatalf("dependencies before their JOB lines built\n%v\nwant\n%v", got, want)
	}
	if !reflect.DeepEqual(early.DepFrom, late.DepFrom) || !reflect.DeepEqual(early.DepTo, late.DepTo) {
		t.Fatalf("dependency ids %v -> %v, want %v -> %v", early.DepFrom, early.DepTo, late.DepFrom, late.DepTo)
	}
	if before.NumArcs() != 3 {
		t.Fatalf("arcs = %d, want 3 (a>c repeated)", before.NumArcs())
	}
}

func TestVarsBeforeJobInstrumentsInPlace(t *testing.T) {
	text := "Vars a jobpriority=\"99\"\nVars b cpus=\"2\"\nJob a a.sub\nJob b b.sub\n"
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got := f.Instrument(map[string]int{"a": 7, "b": 3})
	want := "Vars a jobpriority=\"7\"\nVars b cpus=\"2\"\nJob a a.sub\nJob b b.sub\nVars b jobpriority=\"3\"\n"
	if got != want {
		t.Fatalf("instrumented:\n%s\nwant:\n%s", got, want)
	}
}

func TestVarsForUndeclaredJob(t *testing.T) {
	f, g := mustGraph(t, "Job a a.sub\nVars ghost jobpriority=\"1\"\nVars spook cpus=\"1\"\n")
	for _, name := range []string{"ghost", "spook"} {
		if _, ok := f.Job(name); ok {
			t.Fatalf("Job(%s) found", name)
		}
		if i := g.IndexOf(name); i != -1 {
			t.Fatalf("IndexOf(%s) = %d, want -1", name, i)
		}
	}
	if g.NumNodes() != 1 || g.IndexOf("a") != 0 {
		t.Fatalf("graph nodes %v", g.Names())
	}
	// ghost's line is rewritten in place; spook has none to rewrite, so
	// its line is appended.
	got := f.Instrument(map[string]int{"a": 1, "ghost": 2, "spook": 3})
	want := "Job a a.sub\nVars a jobpriority=\"1\"\nVars ghost jobpriority=\"2\"\nVars spook cpus=\"1\"\nVars spook jobpriority=\"3\"\n"
	if got != want {
		t.Fatalf("instrumented:\n%s\nwant:\n%s", got, want)
	}
}

func TestGraphNamesUndeclaredJob(t *testing.T) {
	for _, text := range []string{
		"Job a a.sub\nParent a Child ghost\n",
		"Job a a.sub\nParent ghost Child a\n",
		"Parent ghost Child a\nJob a a.sub\n",
	} {
		f, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Graph(); err == nil || !strings.Contains(err.Error(), "ghost") {
			t.Fatalf("%q: Graph error %v, want one naming ghost", text, err)
		}
	}
}

func TestGraphRejectsSelfDependency(t *testing.T) {
	for _, text := range []string{
		"Job A a.sub\nParent A Child A\n",
		"Parent A Child A\nJob A a.sub\n",
	} {
		f, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Graph(); err == nil {
			t.Fatalf("%q: self-dependency accepted", text)
		}
	}
}

// TestCrossProductAllocPerArc bounds what one PARENT line can make Parse
// and Graph allocate. K parents and K children expand to K² arcs from
// O(K) input bytes, so no bound per input byte can hold; the bound is
// per arc.
func TestCrossProductAllocPerArc(t *testing.T) {
	const k = 2000
	var b strings.Builder
	for _, side := range []string{"a", "b"} {
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "JOB %s%d x.sub\n", side, i)
		}
	}
	b.WriteString("PARENT")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, " a%d", i)
	}
	b.WriteString(" CHILD")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, " b%d", i)
	}
	b.WriteByte('\n')
	text := b.String()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if g.NumArcs() != k*k {
		t.Fatalf("arcs = %d, want %d", g.NumArcs(), k*k)
	}
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(k*k)
	t.Logf("%d input bytes, %d arcs: %.1f B/arc", len(text), k*k, perArc)
	if perArc > 64 {
		t.Fatalf("Parse+Graph allocated %.1f B/arc, want at most 64", perArc)
	}
}
