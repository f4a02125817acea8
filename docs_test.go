package georoute_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
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
)

// docCitations returns the repository paths a Markdown document cites:
// every word of an inline code span or a fenced block that starts with
// one of citedRoots or names a BENCH_*.json record.
func docCitations(md string) []string {
	var words []string
	for i, part := range fenceLine.Split(md, -1) {
		if i%2 == 1 { // between an opening and a closing fence
			words = append(words, strings.Fields(part)...)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(part, -1) {
			words = append(words, strings.Fields(m[1])...)
		}
	}
	var cited []string
	for _, w := range words {
		w = strings.Trim(w, `"'(),;`)
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

// citationResolves reports whether a cited path exists in the tree. A
// line suffix (file.go:42) is ignored, a <placeholder> matches any name,
// and a pkg.Symbol citation resolves to its package directory.
func citationResolves(c string) bool {
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

// TestDocsCiteExistingFiles fails when a document cites a file, package
// or benchmark record the tree no longer has, so deleting code without
// its documentation shows up in the test run.
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
	} {
		if got := citationResolves(c); got != want {
			t.Errorf("citationResolves(%q) = %v, want %v", c, got, want)
		}
	}
}
