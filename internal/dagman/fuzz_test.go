package dagman

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse hammers the DAGMan parser with arbitrary input: it must
// never panic, and any file it accepts must round-trip through String
// to an equivalent parse (same jobs, same dependency count). When an
// accepted file without splices builds a graph, its arcs must be exactly
// the distinct (parent, child) name pairs of the PARENT lines, as read
// by parentPairs.
func FuzzParse(f *testing.F) {
	f.Add("Job a a.sub\nParent a Child b\n")
	f.Add(fig3Text)
	f.Add("# comment only\n\n")
	f.Add("Splice s other.dag\nJob x x.sub\nParent s Child x\n")
	f.Add("Vars a key=\"v\"\nJOB a a.sub\nRETRY a 2\nPARENT a b CHILD c d e\n")
	f.Add("job A 1 DIR /x NOOP DONE\nparent A child A\n")
	f.Fuzz(func(t *testing.T, input string) {
		file, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		again, err := Parse(strings.NewReader(file.String()))
		if err != nil {
			t.Fatalf("accepted file failed to re-parse: %v\ninput: %q", err, input)
		}
		if len(again.Jobs) != len(file.Jobs) || len(again.DepFrom) != len(file.DepFrom) || len(again.Splices) != len(file.Splices) {
			t.Fatalf("round trip changed shape: %d/%d jobs, %d/%d deps",
				len(file.Jobs), len(again.Jobs), len(file.DepFrom), len(again.DepFrom))
		}
		// Building the graph must never panic either (errors are fine;
		// dag.FromArcs validates acyclicity internally).
		if len(file.Splices) > 0 {
			return
		}
		g, err := file.Graph()
		if err != nil {
			return
		}
		if g.NumNodes() != len(file.Jobs) {
			t.Fatalf("graph has %d nodes for %d jobs", g.NumNodes(), len(file.Jobs))
		}
		want := parentPairs(input)
		if g.NumArcs() != len(want) {
			t.Fatalf("graph has %d arcs, PARENT lines name %d distinct pairs", g.NumArcs(), len(want))
		}
		for _, a := range g.Arcs() {
			if pair := [2]string{g.Name(a.From), g.Name(a.To)}; !want[pair] {
				t.Fatalf("arc %s -> %s is on no PARENT line", pair[0], pair[1])
			}
		}
	})
}

// parentPairs reads the (parent, child) name pairs of every PARENT line
// of a DAGMan file with a plain strings.Fields scan, independently of
// Parse.
func parentPairs(text string) map[[2]string]bool {
	pairs := make(map[[2]string]bool)
	for _, ln := range strings.Split(text, "\n") {
		fields := strings.Fields(ln)
		if len(fields) == 0 || !strings.EqualFold(fields[0], "PARENT") {
			continue
		}
		child := 1
		for !strings.EqualFold(fields[child], "CHILD") {
			child++
		}
		for _, p := range fields[1:child] {
			for _, c := range fields[child+1:] {
				pairs[[2]string{p, c}] = true
			}
		}
	}
	return pairs
}

// FuzzParseSubmit does the same for the JSDF parser and its
// instrumentation.
func FuzzParseSubmit(f *testing.F) {
	f.Add("executable = w\nqueue\n")
	f.Add("priority = 4\n")
	f.Add("# c\n = broken\nQUEUE 10\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseSubmit(strings.NewReader(input))
		if err != nil {
			return
		}
		s.InstrumentPriority()
		v, ok := s.Attribute("priority")
		if !ok || v != "$(jobpriority)" {
			t.Fatalf("instrumentation failed on %q: %q %v", input, v, ok)
		}
		before := s.String()
		s.InstrumentPriority()
		if s.String() != before {
			t.Fatalf("instrumentation not idempotent on %q", input)
		}
	})
}

// FuzzParseDAGMan is the full round-trip target: any input the parser
// accepts must re-parse from its own String output to a byte-identical
// file with identical jobs, dependencies and splices. Together with
// FuzzParse's shape check this pins the rewrite path: an instrumented
// copy differs from its input only by the priority lines prio adds.
func FuzzParseDAGMan(f *testing.F) {
	f.Add("Job a a.sub\nJob b b.sub\nParent a Child b\n")
	f.Add(fig3Text)
	f.Add("JOB A a.sub DIR /tmp NOOP\nVars A k=\"v\" k2=\"w\"\nRETRY A 3\nPARENT A CHILD A\n")
	f.Add("Splice inner inner.dag\nJob out out.sub\nParent inner Child out\n# trailing comment")
	f.Add("\tJob  q\t q.sub  \n\nPriority q 7\n")
	f.Fuzz(func(t *testing.T, input string) {
		file, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		text := file.String()
		again, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("accepted file failed to re-parse: %v\nwritten: %q", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("write is not a fixed point:\nfirst:  %q\nsecond: %q", text, got)
		}
		if !reflect.DeepEqual(again.Jobs, file.Jobs) {
			t.Fatalf("round trip changed jobs: %v -> %v", file.Jobs, again.Jobs)
		}
		if !reflect.DeepEqual(again.DepFrom, file.DepFrom) || !reflect.DeepEqual(again.DepTo, file.DepTo) {
			t.Fatalf("round trip changed deps: %v -> %v to %v -> %v", file.DepFrom, file.DepTo, again.DepFrom, again.DepTo)
		}
		if !reflect.DeepEqual(again.Splices, file.Splices) {
			t.Fatalf("round trip changed splices: %v -> %v", file.Splices, again.Splices)
		}
	})
}
