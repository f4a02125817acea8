package georoute_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// citingDocs are the documents whose file references must resolve.
// bench/README.md is left out: it belongs to the benchmark harness and
// changes only with it.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// citedRoots are the top-level directories whose paths the docs cite.
var citedRoots = []string{"internal/", "cmd/", "scripts/", "campaigns/", "examples/", "bench/"}

var (
	fenceLine   = regexp.MustCompile("(?m)^```.*$")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	benchRecord = regexp.MustCompile(`^BENCH_\w+\.json$`)
	placeholder = regexp.MustCompile(`<[^>]*>`)
	lineSuffix  = regexp.MustCompile(`:\d+$`)
	definedFlag = regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
	flagWord    = regexp.MustCompile(`^--?([a-z][\w-]*)`)
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// docCode returns the code of a Markdown document: every inline code
// span, and every line of a fenced block with its backslash
// continuations joined.
func docCode(md string) []string {
	var code []string
	for i, part := range fenceLine.Split(md, -1) {
		if i%2 == 1 { // between an opening and a closing fence
			code = append(code, strings.Split(strings.ReplaceAll(part, "\\\n", " "), "\n")...)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(part, -1) {
			code = append(code, m[1])
		}
	}
	return code
}

// docCitations returns the repository paths and test names a Markdown
// document cites: every word of an inline code span or a fenced block
// that starts with one of citedRoots or names a BENCH_*.json record, and
// every Test…, Benchmark… or Fuzz… name inside such a word (a -run
// pattern cites each name in it).
func docCitations(md string) []string {
	var cited []string
	for _, w := range strings.Fields(strings.Join(docCode(md), " ")) {
		w = strings.Trim(w, `"'(),;`)
		cited = append(cited, testName.FindAllString(w, -1)...)
		if benchRecord.MatchString(w) {
			cited = append(cited, w)
			continue
		}
		for _, root := range citedRoots {
			if strings.HasPrefix(w, root) {
				cited = append(cited, w)
				break
			}
		}
	}
	return cited
}

// testFuncs lists the Test, Benchmark and Fuzz functions of every
// _test.go file in the tree, hidden directories left out.
var testFuncs = sync.OnceValue(func() []string {
	var names []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(p, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(p)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		panic(err)
	}
	return names
})

// citationResolves reports whether a cited path exists in the tree, or a
// cited test name names or prefixes a test function. A line suffix
// (file.go:42) is ignored, a <placeholder> matches any name, and a
// pkg.Symbol citation resolves to its package directory.
func citationResolves(c string) bool {
	if testName.FindString(c) == c {
		return slices.ContainsFunc(testFuncs(), func(f string) bool { return strings.HasPrefix(f, c) })
	}
	c = lineSuffix.ReplaceAllString(c, "")
	c = strings.TrimSuffix(c, "/...")
	if pattern := placeholder.ReplaceAllString(c, "*"); pattern != c || strings.ContainsAny(c, "*?[") {
		matches, _ := filepath.Glob(pattern)
		return len(matches) > 0
	}
	if _, err := os.Stat(c); err == nil {
		return true
	}
	dir, last := filepath.Split(c)
	pkg, _, isSymbol := strings.Cut(last, ".")
	if !isSymbol || pkg == "" {
		return false
	}
	fi, err := os.Stat(filepath.Join(dir, pkg))
	return err == nil && fi.IsDir()
}

// TestDocsCiteExistingFiles fails when a document cites a file, package,
// benchmark record or test the tree no longer has, so deleting code
// without its documentation shows up in the test run.
func TestDocsCiteExistingFiles(t *testing.T) {
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := docCitations(string(b))
		if len(cited) == 0 {
			t.Errorf("%s cites no repository path; the scan is broken", doc)
		}
		for _, c := range cited {
			if !citationResolves(c) {
				t.Errorf("%s cites `%s`, which does not exist", doc, c)
			}
		}
	}
}

// cliTools are the commands under cmd/ whose flags the docs cite.
var cliTools = []string{"geosim", "geotrace"}

// flagCitations returns the flags a Markdown document passes to each of
// cliTools: every -flag word that follows the tool's name (or a path
// ending in it) in a code span or a fenced line, up to the end of that
// command — a pipe, a redirect, a command separator or a comment.
func flagCitations(md string) map[string][]string {
	cited := make(map[string][]string)
	for _, line := range docCode(md) {
		tool := ""
		for _, w := range strings.Fields(line) {
			switch {
			case slices.Contains([]string{"|", "||", "&", "&&", ";"}, w) || strings.ContainsAny(w[:1], "#<>") || strings.HasPrefix(w, "2>"):
				tool = ""
			case slices.Contains(cliTools, path.Base(strings.TrimRight(w, ",;"))):
				tool = path.Base(strings.TrimRight(w, ",;"))
			case tool != "" && flagWord.MatchString(w):
				cited[tool] = append(cited[tool], flagWord.FindStringSubmatch(w)[1])
			}
			if strings.HasSuffix(w, ";") {
				tool = ""
			}
		}
	}
	return cited
}

// TestDocsCiteExistingFlags fails when a document passes geosim or
// geotrace a flag that cmd/<tool>/main.go no longer defines, so deleting
// a flag without its documentation shows up in the test run.
func TestDocsCiteExistingFlags(t *testing.T) {
	defined := make(map[string][]string)
	for _, tool := range cliTools {
		src, err := os.ReadFile(filepath.Join("cmd", tool, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range definedFlag.FindAllStringSubmatch(string(src), -1) {
			defined[tool] = append(defined[tool], m[1])
		}
		if len(defined[tool]) == 0 {
			t.Fatalf("cmd/%s/main.go defines no flags; the scan is broken", tool)
		}
	}
	total := 0
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for tool, flags := range flagCitations(string(b)) {
			total += len(flags)
			for _, f := range flags {
				if !slices.Contains(defined[tool], f) {
					t.Errorf("%s passes %s -%s, which cmd/%s/main.go does not define", doc, tool, f, tool)
				}
			}
		}
	}
	if total == 0 {
		t.Error("the docs pass no flags to any tool; the scan is broken")
	}
}

func TestFlagCitations(t *testing.T) {
	md := "Run `geosim -experiment fig7a -runs=2` or `-format` alone.\n" +
		"```bash\n" +
		"/tmp/geotrace -validate \"$f\" --quiet | grep -v -x foo\n" +
		"./geosim -campaign c.json \\\n  -listen :0 2>log & # -not-a-flag\n" +
		"go test -run X ./cmd/geosim\n" +
		"```\n"
	want := map[string][]string{
		"geosim":   {"experiment", "runs", "campaign", "listen"},
		"geotrace": {"validate", "quiet"},
	}
	got := flagCitations(md)
	for _, tool := range cliTools {
		if !slices.Equal(got[tool], want[tool]) {
			t.Errorf("flagCitations %s = %q, want %q", tool, got[tool], want[tool])
		}
	}
}

func TestCitationResolves(t *testing.T) {
	for c, want := range map[string]bool{
		"internal/sim":                true,
		"internal/sim/engine.go":      true,
		"internal/sim/engine.go:12":   true,
		"internal/sim.NewEngine":      true,
		"internal/sim/missing.go":     false,
		"internal/nosuchpkg.Symbol":   false,
		"campaigns/<spec>.json":       true,
		"campaigns/<spec>.yaml":       false,
		"BENCH_nosuchrecord.json":     false,
		"internal/...":                true,
		"scripts/nosuchscript.sh":     false,
		"examples/quickstart/main.go": true,
		"TestCitationResolves":        true,
		"TestCitation":                true, // a -run prefix
		"FuzzPacketWire":              true,
		"BenchmarkFig7aPair":          true,
		"TestNoSuchTest":              false,
		"BenchmarkNoSuchBench":        false,
	} {
		if got := citationResolves(c); got != want {
			t.Errorf("citationResolves(%q) = %v, want %v", c, got, want)
		}
	}
}
