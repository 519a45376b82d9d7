package jisc

import (
	"fmt"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guard is one structural guard: a name or layout the design deleted
// or forbade, which must not grow back. Its pattern is matched line by
// line against the files under its roots (paths from the repository
// root, each a directory walked recursively or a single file).
type guard struct {
	name    string
	pattern string
	roots   []string
	// every reads every file under the roots, test and non-Go files
	// included; otherwise only .go files not named *_test.go are read.
	every bool
	// except exempts a matching line that also matches it.
	except string
	// files is how many files must match; 0 means no line may.
	files int
	msg   string
}

var guards = []guard{
	{
		name:    "one way in",
		pattern: `lastArrival|fresh bool|\.Enqueue\(|Deterministic:|AppendFeed\(`,
		roots:   []string{"internal", "cmd", "jisc.go"},
		msg:     "a deleted ingest-path name is back (see DESIGN.md §6.3, §13)",
	},
	{
		name:    "one cost model",
		pattern: `UseLatency|LatencyOrder|LatencyCostOf|ProbeNanos|ProbeSamples|sinceInput|\.Payload\b|ResumeAuto`,
		roots:   []string{"internal", "cmd", "benchmark", "jisc.go"},
		msg:     "a deleted autopilot setting or dead field is back (see DESIGN.md §14, §15)",
	},
	{
		name:    "figure instruments stay in the figures",
		pattern: `MarkTransition|MarkOutputsAt|OutputLatencies|awaitingOutput|jisc/internal/optimizer`,
		roots:   []string{"internal", "cmd", "jisc.go"},
		msg:     "a deleted latency-window or optimizer name is back (see DESIGN.md §9, §14)",
	},
	{
		name:    "one record per spilled part",
		pattern: `state\.Backend|spillInfo|SpilledKeys|GarbageRatio|s\.index\[|inRing|ckey|ClockTouched|Pressured\(|Store\) Admit|CheckpointShard`,
		roots:   []string{"internal", "cmd"},
		msg:     "a deleted spill-tier name is back (see DESIGN.md §15)",
	},
	{
		name:    "flat state",
		pattern: `map\[tuple\.Value\]`,
		roots:   []string{"internal/state"},
		msg:     "a per-key map is back in state.Table (see DESIGN.md §6.8)",
	},
	{
		name:    "pointer-free join state",
		pattern: `\[\]\*tuple\.Tuple`,
		roots:   []string{"internal/state"},
		msg:     "a state keeps tuple pointers again (see DESIGN.md §9)",
	},
	{
		name:    "pointer-free spill tier",
		pattern: `\[\]\*tuple\.Tuple|nrefs`,
		roots:   []string{"internal/statestore"},
		msg:     "the spill tier handles tuple pointers again (see DESIGN.md §15)",
	},
	{
		name:    "row charge",
		pattern: `nrefs|64 \+ 16`,
		roots:   []string{"internal/state"},
		msg:     "TupleBytes charges the pointer layout again (see DESIGN.md §15)",
	},
	{
		name:    "no oldest tick",
		pattern: `\bOldest\b`,
		roots:   []string{"."},
		msg:     "a tuple or row carries an oldest tick again (see DESIGN.md §9, deviation 6)",
	},
	{
		name:    "one state structure",
		pattern: `state\.List|NewList|ensureList|\.Ls\b|Builder\) Join\(`,
		roots:   []string{"internal", "cmd", "jisc.go"},
		msg:     "a second state structure is back (see DESIGN.md §2)",
	},
	{
		name:    "one completeness record",
		pattern: `ClearBorn|born map\[|CounterSide \*`,
		roots:   []string{"."},
		msg:     "a state's completeness record is kept outside its table again (see DESIGN.md §9)",
	},
	{
		name:    "one window",
		pattern: `TimeWindow|NewTime\(|Slider\b|EachTimed|Admit\(ref|\) Admit\(`,
		roots:   []string{"internal/window", "internal/engine", "internal/eddy", "internal/migrate", "cmd"},
		msg:     "a second window type is back (see DESIGN.md §9)",
	},
	{
		name:    "test-only surface stays in tests",
		pattern: `\(s \*Server\) (lookup|Subscribers|WALDisabledMutations)\(|\(c \*Client\) (Feed|Migrate|Plan|Checkpoint|Subscribe|Raw|Create|Drop|List|On)\(|ScopedClient|type Result struct|DescribeStates|SwapIncompleteStates|CompleteCount\(|MustParse\(|\) (RefOf|IsBase|Running|Height)\(|HarmonicAsymptotic|SwapProb\(|Record\) Equal\(|SetStore\([^)]*,`,
		roots:   []string{"."},
		msg:     "a deleted or test-only declaration is back in non-test code",
	},
	{
		name:    "one frame format",
		pattern: `frameHeader|crc32\.`,
		roots:   []string{"internal/durable"},
		msg:     "durable redefines the storage package's frame header or CRC table",
	},
	{
		name:    "one log",
		pattern: `OpenAppend\(|\.Write\(|Sync\(|appendFrame\(|scanFrames\(|Truncate\(`,
		roots:   []string{"internal/durable/catalog.go"},
		msg:     "the catalog does its own log I/O again (see DESIGN.md §11)",
	},
	{
		name:    "the engine publishes its view",
		pattern: `Publish\(|Published\(`,
		roots:   []string{"internal/metrics"},
		every:   true,
		msg:     "publishing is back in internal/metrics (the engine publishes its view, engine.View)",
	},
	{
		name:    "no read rides a shard's queue",
		pattern: `\beach\(`,
		roots:   []string{"internal/runtime"},
		msg:     "a monitor read rides a shard's queue again (Runtime.each)",
	},
	{
		name:    "one Output adapter",
		pattern: `\.JoinTransient\(`,
		roots:   []string{"."},
		files:   1,
		msg:     "JoinTransient is not called from exactly one non-test file; the Output adapter (engine.Output.Sink) is its one caller (see DESIGN.md §9)",
	},
	{
		name:    "one result path",
		pattern: `AcquireBuilder|ProbeOutput|\.Copy\(`,
		except:  `io\.Copy\(`,
		roots:   []string{"."},
		msg:     "a second result path is back: every root lends its results through the one engine.Sink (see DESIGN.md §9)",
	},
	{
		name:    "one left-deep executor",
		pattern: `NewStairs|StairsConfig|completeLazy|promoteAll`,
		roots:   []string{"."},
		msg:     "a second left-deep executor is back: STAIRs are the engine's left-deep states, promoted by Moving State and JISC (see DESIGN.md §2, §5)",
	},
	{
		name:    "one naive reference",
		pattern: `hybridOracle|newOracle|diffHarness\) oracle`,
		roots:   []string{"internal"},
		every:   true,
		msg:     "a hand-written result oracle is back: every Theorem 1 referee reads enginetest.Reference (see DESIGN.md §4)",
	},
	{
		name:    "no clock in the operators",
		pattern: `SampleProbe|jisc_probe_seconds|jisc_build_seconds|\.(Probe|Build)\.Record\(`,
		roots:   []string{"internal", "cmd", "jisc.go"},
		msg:     "per-probe timing is back: the engine reads its clock only around a sampled FeedBatch call, a completion episode or a Migrate (see DESIGN.md §10)",
	},
}

// gone lists paths the design deleted.
var gone = []struct{ path, msg string }{
	{"internal/optimizer", "internal/optimizer is back; the advisor lives in internal/adaptive (see DESIGN.md §14)"},
	{"internal/state/list.go", "internal/state/list.go is back: a nested-loops state is a state.Table"},
}

// forbiddenDeps is the layering rule: pkg must not depend on dep,
// directly or through another package of the module (test imports
// aside).
var forbiddenDeps = []struct{ pkg, dep, msg string }{
	{"internal/statestore", "internal/state", "internal/statestore imports internal/state (see DESIGN.md §15)"},
	{"cmd/jiscd", "internal/enginetest", "jiscd links the test reference (see DESIGN.md §4)"},
	{"cmd/jiscd", "internal/sim", "jiscd links the simulation harness (see DESIGN.md §12)"},
	{"cmd/jiscd", "internal/testseed", "jiscd links the test seed flag (see DESIGN.md §4)"},
}

func TestStructuralGuards(t *testing.T) {
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			re := regexp.MustCompile(g.pattern)
			var except *regexp.Regexp
			if g.except != "" {
				except = regexp.MustCompile(g.except)
			}
			var hits []string
			files := 0
			for _, root := range g.roots {
				err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
					if err != nil || d.IsDir() {
						return err
					}
					if !g.every && (!strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go")) {
						return nil
					}
					data, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					matched := false
					for n, line := range strings.Split(string(data), "\n") {
						if re.MatchString(line) && (except == nil || !except.MatchString(line)) {
							hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n+1, line))
							matched = true
						}
					}
					if matched {
						files++
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if files != g.files {
				t.Errorf("%s (%d files match, want %d)\n%s", g.msg, files, g.files, strings.Join(hits, "\n"))
			}
		})
	}
	for _, p := range gone {
		if _, err := os.Stat(p.path); err == nil {
			t.Error(p.msg)
		}
	}
	for _, r := range forbiddenDeps {
		if moduleDeps(t, r.pkg)[r.dep] {
			t.Error(r.msg)
		}
	}
}

// moduleDeps returns the module packages pkg depends on, directly or
// transitively, as paths from the repository root: the module part of
// go list -deps, read with go/build.
func moduleDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	const module = "jisc/"
	deps := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		p, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports {
			rel, ok := strings.CutPrefix(imp, module)
			if ok && !deps[rel] {
				deps[rel] = true
				visit(rel)
			}
		}
	}
	visit(pkg)
	return deps
}
