// Package dagman reads and writes Condor DAGMan input files and job
// submit description files (JSDFs), and instruments them with job
// priorities the way the prio tool does (Section 3.2): a
//
//	VARS <job> jobpriority="<n>"
//
// line per job in the DAGMan file, and a
//
//	priority = $(jobpriority)
//
// attribute in each JSDF. The indirection through the jobpriority macro
// is deliberate — a single JSDF may be shared by jobs of several DAGMan
// files needing different priorities.
//
// Parse hashes each name once, into the File's one name table; from
// there on dependencies and VARS lines carry ids, which Graph hands
// straight to dag.FromArcs.
package dagman

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"unicode"

	"repro/internal/dag"
)

// Job is one JOB statement.
type Job struct {
	Name       string
	SubmitFile string
	// Extra preserves trailing tokens (DIR <d>, NOOP, DONE).
	Extra []string
}

// lineKind tags a preserved input line.
type lineKind int

const (
	lineOther lineKind = iota // comments, blanks, CONFIG, RETRY, ...
	lineJob                   // JOB statement; jobIdx set
	lineDep                   // PARENT ... CHILD ...
	lineVars                  // VARS statement; varsJob set
)

type line struct {
	raw  string
	kind lineKind
	id   int32 // lineJob: the Jobs index; lineVars: the named job's id
}

// File is a parsed DAGMan input file. It preserves enough of the
// original text to write an instrumented copy that differs only by the
// added or updated priority lines.
type File struct {
	Jobs []Job
	// DepFrom[i] is a parent of DepTo[i], one pair per PARENT/CHILD
	// combination in file order. A job's id is its Jobs index; a name no
	// JOB line declares (a splice, or a typo Graph reports) is negative.
	DepFrom, DepTo []int32
	// Splices lists SPLICE statements; resolve them with Flatten before
	// building the dependency graph.
	Splices []Splice
	lines   []line
	// index maps each name to its id. undeclared[k] is the name first
	// seen with id -(k+1); alias[k] is its id at the end of Parse.
	index      map[string]int
	undeclared []string
	alias      []int32
	// fieldsBuf and idBuf are addLine's reusable scratch; fields that
	// outlive the line are substrings of the input or copied out.
	fieldsBuf []string
	idBuf     []int32
}

// Parse reads a DAGMan input file. The whole input is read into one
// string and every line, job name, and submit-file reference is a
// substring of it, so parsing a file of L lines costs O(log L)
// allocations beyond the retained Jobs/DepFrom/DepTo/lines slices rather
// than a line copy plus a token slice per line.
func Parse(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dagman: read: %w", err)
	}
	text := string(data)
	f := &File{index: make(map[string]int)}
	lineNo := 0
	for start := 0; start < len(text); {
		var raw string
		if end := strings.IndexByte(text[start:], '\n'); end < 0 {
			raw = text[start:]
			start = len(text)
		} else {
			raw = text[start : start+end]
			start += end + 1
		}
		// A \r\n terminator counts as a plain \n, and so does any run of
		// \r before it: a kept \r, white space to the tokenizer, would
		// make String write a line that re-parses differently.
		raw = strings.TrimRight(raw, "\r")
		lineNo++
		if err := f.addLine(raw, lineNo); err != nil {
			return nil, err
		}
	}
	// Names used before their JOB line take their Jobs index.
	for _, ids := range [][]int32{f.DepFrom, f.DepTo} {
		for i, id := range ids {
			if id < 0 {
				ids[i] = f.alias[-id-1]
			}
		}
	}
	for i := range f.lines {
		if ln := &f.lines[i]; ln.kind == lineVars && ln.id < 0 {
			ln.id = f.alias[-ln.id-1]
		}
	}
	return f, nil
}

// id returns the id of name, giving a name not seen before the next
// negative id.
func (f *File) id(name string) int32 {
	if id, ok := f.index[name]; ok {
		return int32(id)
	}
	id := -int32(len(f.undeclared) + 1)
	f.undeclared = append(f.undeclared, name)
	f.alias = append(f.alias, id)
	f.index[name] = int(id)
	return id
}

// name returns the name with the given id.
func (f *File) name(id int32) string {
	if id >= 0 {
		return f.Jobs[id].Name
	}
	return f.undeclared[-id-1]
}

// ParseFile reads a DAGMan input file from disk.
func ParseFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dagman: %w", err)
	}
	defer fh.Close()
	return Parse(fh)
}

// appendFields splits s around runs of white space (as unicode.IsSpace
// defines it, matching strings.Fields) into dst, which is returned. The
// fields are substrings of s.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// cloneTail copies the Extra tail of a statement out of the reusable
// field buffer; nil when there are no trailing tokens.
func cloneTail(fields []string) []string {
	if len(fields) == 0 {
		return nil
	}
	return append([]string(nil), fields...)
}

func (f *File) addLine(raw string, lineNo int) error {
	fields := appendFields(f.fieldsBuf[:0], raw)
	f.fieldsBuf = fields
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		f.lines = append(f.lines, line{raw: raw})
		return nil
	}
	switch strings.ToUpper(fields[0]) {
	case "JOB":
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: JOB needs a name and a submit file", lineNo)
		}
		name := fields[1]
		id, seen := f.index[name]
		if seen && id >= 0 {
			return fmt.Errorf("dagman: line %d: duplicate job %q", lineNo, name)
		}
		for _, s := range f.Splices {
			if s.Name == name {
				return fmt.Errorf("dagman: line %d: job %q collides with a splice name", lineNo, name)
			}
		}
		if seen {
			f.alias[-id-1] = int32(len(f.Jobs))
		}
		f.index[name] = len(f.Jobs)
		f.Jobs = append(f.Jobs, Job{Name: name, SubmitFile: fields[2], Extra: cloneTail(fields[3:])})
		f.lines = append(f.lines, line{raw: raw, kind: lineJob, id: int32(len(f.Jobs) - 1)})
	case "PARENT":
		childAt := -1
		for i, tok := range fields {
			if strings.EqualFold(tok, "CHILD") {
				childAt = i
				break
			}
		}
		if childAt < 2 || childAt == len(fields)-1 {
			return fmt.Errorf("dagman: line %d: PARENT ... CHILD ... malformed", lineNo)
		}
		children := f.idBuf[:0]
		for _, c := range fields[childAt+1:] {
			children = append(children, f.id(c))
		}
		f.idBuf = children
		parents := fields[1:childAt]
		f.DepFrom = slices.Grow(f.DepFrom, len(parents)*len(children))
		f.DepTo = slices.Grow(f.DepTo, len(parents)*len(children))
		for _, p := range parents {
			u := f.id(p)
			for _, v := range children {
				f.DepFrom = append(f.DepFrom, u)
				f.DepTo = append(f.DepTo, v)
			}
		}
		f.lines = append(f.lines, line{raw: raw, kind: lineDep})
	case "VARS":
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: VARS needs a job and an assignment", lineNo)
		}
		f.lines = append(f.lines, line{raw: raw, kind: lineVars, id: f.id(fields[1])})
	case "SPLICE":
		return f.parseSplice(fields, raw, lineNo)
	default:
		// RETRY, SCRIPT, CONFIG, DOT, MAXJOBS, PRIORITY, ... preserved.
		f.lines = append(f.lines, line{raw: raw})
	}
	return nil
}

// Job returns the named job, if declared.
func (f *File) Job(name string) (Job, bool) {
	i, ok := f.index[name]
	if !ok || i < 0 {
		return Job{}, false
	}
	return f.Jobs[i], true
}

// Graph builds the dependency dag: one node per JOB in declaration
// order, one arc per PARENT/CHILD pair. Dependencies naming undeclared
// jobs are errors; duplicate dependencies are tolerated (DAGMan accepts
// them) and collapsed by dag.FromArcs.
func (f *File) Graph() (*dag.Frozen, error) {
	if len(f.Splices) > 0 {
		return nil, fmt.Errorf("dagman: file contains %d unresolved SPLICE statements; call Flatten first", len(f.Splices))
	}
	for i, u := range f.DepFrom {
		if id := min(u, f.DepTo[i]); id < 0 {
			return nil, fmt.Errorf("dagman: dependency names undeclared job %q", f.name(id))
		}
	}
	names := make([]string, len(f.Jobs))
	for i, j := range f.Jobs {
		names[i] = j.Name
	}
	g, err := dag.FromArcs(names, f.index, f.DepFrom, f.DepTo)
	if err != nil {
		return nil, fmt.Errorf("dagman: dependencies are cyclic: %w", err)
	}
	return g, nil
}

// Instrument returns the text of the DAGMan file with a
// VARS <job> jobpriority="<n>" line for every job in priorities.
// Existing jobpriority VARS lines are replaced in place; jobs without an
// existing line get one immediately after their JOB statement, which is
// where Fig. 3 shows them.
func (f *File) Instrument(priorities map[string]int) string {
	// One pass up front over the VARS lines: which names (by off+id)
	// already carry a jobpriority attribute somewhere in the file.
	// Scanning per JOB line instead made Instrument quadratic in file
	// length — tens of seconds on the 48k-job SDSS dag, dominating the
	// instrumented parse→schedule→write pipeline.
	off := len(f.undeclared)
	hasPriority := make([]bool, off+len(f.Jobs))
	for _, ln := range f.lines {
		if ln.kind == lineVars && strings.Contains(ln.raw, "jobpriority") {
			hasPriority[off+int(ln.id)] = true
		}
	}
	var b strings.Builder
	for _, ln := range f.lines {
		switch ln.kind {
		case lineVars:
			name := f.name(ln.id)
			if p, ok := priorities[name]; ok && strings.Contains(ln.raw, "jobpriority") {
				fmt.Fprintf(&b, "Vars %s jobpriority=\"%d\"\n", name, p)
				continue
			}
			b.WriteString(ln.raw)
			b.WriteByte('\n')
		case lineJob:
			b.WriteString(ln.raw)
			b.WriteByte('\n')
			name := f.Jobs[ln.id].Name
			if p, ok := priorities[name]; ok && !hasPriority[off+int(ln.id)] {
				fmt.Fprintf(&b, "Vars %s jobpriority=\"%d\"\n", name, p)
			}
		default:
			b.WriteString(ln.raw)
			b.WriteByte('\n')
		}
	}
	// Jobs named in priorities but absent from the file are appended so
	// the output is at least self-consistent; callers normally derive
	// priorities from this very file, making this a no-op.
	var missing []string
	for name := range priorities {
		if id, ok := f.index[name]; !ok || (id < 0 && !hasPriority[off+id]) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(&b, "Vars %s jobpriority=\"%d\"\n", name, priorities[name])
	}
	return b.String()
}

// String reproduces the file text as parsed.
func (f *File) String() string {
	var b strings.Builder
	for _, ln := range f.lines {
		b.WriteString(ln.raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// FromGraph renders a dag as a DAGMan input file, one JOB per node (in
// node order, so parsing the result reproduces the node numbering) and
// one PARENT/CHILD line per node with children. submitFile names each
// job's JSDF; if nil, "<name>.sub" is used.
func FromGraph(g *dag.Frozen, submitFile func(name string) string) *File {
	if submitFile == nil {
		submitFile = func(name string) string { return name + ".sub" }
	}
	var b strings.Builder
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(&b, "Job %s %s\n", g.Name(v), submitFile(g.Name(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		children := g.Children(v)
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(&b, "Parent %s Child", g.Name(v))
		for _, c := range children {
			fmt.Fprintf(&b, " %s", g.Name(int(c)))
		}
		b.WriteByte('\n')
	}
	f, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		panic(fmt.Sprintf("dagman: FromGraph produced unparseable text: %v", err))
	}
	return f
}
