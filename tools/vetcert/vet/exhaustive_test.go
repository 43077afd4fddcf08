package vet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"certsql/tools/vetcert/vet"
)

// Focused checks for the three exhaustiveness rules (famexhaustive,
// sentinelswitch, enumswitch): one test per behaviour, each pinned to
// a named function of the cases/exhaustive corpus package. TestCorpus
// already matches every finding against its want comment; these tests
// say which behaviour broke when one of those matches fails.

var exhaustiveCorpus struct {
	once     sync.Once
	ok       bool
	findings []vet.Diagnostic
	funcs    map[string][2]token.Position // function name -> start, end
}

// findingsInFunc returns the corpus findings reported inside the named
// function of the cases/exhaustive corpus package. The corpus is loaded
// and linted once per test binary.
func findingsInFunc(t *testing.T, name string) []vet.Diagnostic {
	t.Helper()
	c := &exhaustiveCorpus
	c.once.Do(func() {
		findings, corpusRoot := loadCorpus(t)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(corpusRoot, "cases", "exhaustive"), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.funcs = map[string][2]token.Position{}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						c.funcs[fd.Name.Name] = [2]token.Position{fset.Position(fd.Pos()), fset.Position(fd.End())}
					}
				}
			}
		}
		c.findings = findings
		c.ok = true
	})
	if !c.ok {
		t.Fatal("loading the exhaustive corpus failed in an earlier test")
	}
	span, found := c.funcs[name]
	if !found {
		t.Fatalf("no function %s in the exhaustive corpus", name)
	}
	var in []vet.Diagnostic
	for _, d := range c.findings {
		if d.File == span[0].Filename && d.Line >= span[0].Line && d.Line <= span[1].Line {
			in = append(in, d)
		}
	}
	return in
}

// expectFinding asserts exactly one finding of rule inside fn, whose
// message contains every part.
func expectFinding(t *testing.T, fn, rule string, parts ...string) {
	t.Helper()
	got := findingsInFunc(t, fn)
	if len(got) != 1 {
		t.Fatalf("%s: %d findings, want 1: %v", fn, len(got), got)
	}
	if got[0].Rule != rule {
		t.Errorf("%s: finding from rule %s, want %s: %s", fn, got[0].Rule, rule, got[0])
	}
	for _, p := range parts {
		if !strings.Contains(got[0].Message, p) {
			t.Errorf("%s: finding should name %q: %s", fn, p, got[0])
		}
	}
}

// expectClean asserts that no rule reports anything inside fn.
func expectClean(t *testing.T, fn string) {
	t.Helper()
	if got := findingsInFunc(t, fn); len(got) != 0 {
		t.Errorf("%s: want no findings, got %v", fn, got)
	}
}

// --- famexhaustive --------------------------------------------------------

func TestFamExhaustiveMissingCasesNoDefault(t *testing.T) {
	expectFinding(t, "missingNoDefault", "famexhaustive", "algebra.Cond", "no default", "Not")
}

func TestFamExhaustiveSilentDefault(t *testing.T) {
	expectFinding(t, "silentDefault", "famexhaustive", "silent")
}

func TestFamExhaustiveLoudDefaultAccepted(t *testing.T) {
	expectClean(t, "loudDefault")
}

func TestFamExhaustivePartialAnnotation(t *testing.T) {
	expectClean(t, "partialWalk")
}

func TestFamExhaustiveUnrelatedSwitchIgnored(t *testing.T) {
	expectClean(t, "builtinSwitch")
}

func TestFamExhaustiveNoDefaultAccepted(t *testing.T) {
	expectClean(t, "fullCoverage")
}

// --- sentinelswitch -------------------------------------------------------

// A default does not excuse a partial sentinel dispatch: the catch-all
// would misclassify the missing ones.
func TestSentinelSwitchMissing(t *testing.T) {
	expectFinding(t, "status", "sentinelswitch",
		"guard.ErrDeadline", "guard.ErrRowBudget", "guard.ErrMemBudget", "guard.ErrCostBudget")
	expectFinding(t, "classify", "sentinelswitch", "guard.ErrBudget")
}

func TestSentinelSwitchComplete(t *testing.T) {
	expectClean(t, "classifyAll")
}

func TestSentinelSwitchPartialAnnotation(t *testing.T) {
	expectClean(t, "isBudgetPartial")
}

// Referencing a sentinel inside a case body is not dispatching on it.
func TestSentinelSwitchInCaseBodyIgnored(t *testing.T) {
	expectClean(t, "returnsSentinel")
}

// --- enumswitch -----------------------------------------------------------

// A default does not excuse a partial dispatch on a strict enum.
func TestRuleKindSwitchMissing(t *testing.T) {
	expectFinding(t, "ruleLabelOne", "enumswitch", "plan.RuleB", "plan.RuleC")
	expectFinding(t, "ruleLabel", "enumswitch", "plan.RuleC")
}

func TestRuleKindSwitchComplete(t *testing.T) {
	expectClean(t, "ruleLabelAll")
}

func TestRuleKindSwitchPartialAnnotation(t *testing.T) {
	expectClean(t, "isRuleA")
}

// Returning a kind from a case body is not dispatching on it.
func TestRuleKindInCaseBodyIgnored(t *testing.T) {
	expectClean(t, "ruleOf")
}
