package clara

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citingDocs are the documents whose test names a reader follows to the
// test that pins a claim.
var citingDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

var (
	citedName    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*`)
	declaredName = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*)\(`)
)

// declaredTests returns every Test, Fuzz and Benchmark function declared
// in a _test.go file under root, nested modules included.
func declaredTests(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaredName.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// undeclaredCitations returns, sorted, each "doc: Name" citation of a
// name declared nowhere.
func undeclaredCitations(t *testing.T, declared map[string]bool) []string {
	t.Helper()
	var out []string
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range citedName.FindAllString(string(text), -1) {
			if !declared[name] && !seen[name] {
				seen[name] = true
				out = append(out, doc+": "+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestCitedTestsExist holds the documents to the tree: every Test…,
// Fuzz… and Benchmark… name cited in DESIGN.md, README.md and the verify
// notes must be declared in some test file, so a renamed or deleted test
// cannot leave a claim pointing at nothing.
func TestCitedTestsExist(t *testing.T) {
	declared := declaredTests(t, ".")
	for _, c := range undeclaredCitations(t, declared) {
		t.Errorf("%s is cited but declared in no test file", c)
	}

	// The check bites: renaming a cited test must make it fail.
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	victim := citedName.FindString(string(text))
	if victim == "" {
		t.Fatal("DESIGN.md cites no test")
	}
	delete(declared, victim)
	declared[victim+"Renamed"] = true
	if missing := undeclaredCitations(t, declared); len(missing) == 0 {
		t.Errorf("renaming %s went unnoticed", victim)
	}
}
