package faults

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// Two injectors built from the same plan must agree on every decision —
// the property the whole recovery stack's reproducibility rests on.
func TestCrashAttemptDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, TaskCrashProb: 0.3}
	a := MustNew(plan)
	b := MustNew(plan)
	crashes := 0
	for task := 0; task < 50; task++ {
		for attempt := 1; attempt <= 4; attempt++ {
			ca, fa := a.CrashAttempt("job", PhaseMap, task, attempt, 0)
			cb, fb := b.CrashAttempt("job", PhaseMap, task, attempt, 0)
			if ca != cb || fa != fb {
				t.Fatalf("task %d attempt %d: injectors disagree (%v/%v vs %v/%v)", task, attempt, ca, fa, cb, fb)
			}
			if ca {
				crashes++
				if fa <= 0 || fa > 1 {
					t.Fatalf("fail point %v out of (0,1]", fa)
				}
			}
		}
	}
	if crashes == 0 {
		t.Fatal("30% crash probability over 200 sites injected nothing")
	}
}

// Different seeds must actually change the decision pattern.
func TestSeedChangesDecisions(t *testing.T) {
	a := MustNew(Plan{Seed: 1, TaskCrashProb: 0.5})
	b := MustNew(Plan{Seed: 2, TaskCrashProb: 0.5})
	same := true
	for task := 0; task < 64; task++ {
		ca, _ := a.CrashAttempt("j", PhaseMap, task, 1, 0)
		cb, _ := b.CrashAttempt("j", PhaseMap, task, 1, 0)
		if ca != cb {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical crash patterns over 64 sites")
	}
}

func TestMaxCrashesPerTask(t *testing.T) {
	in := MustNew(Plan{Seed: 7, TaskCrashProb: 1, MaxCrashesPerTask: 2})
	if c, _ := in.CrashAttempt("j", PhaseMap, 0, 1, 0); !c {
		t.Fatal("attempt 1 with prob 1 should crash")
	}
	if c, _ := in.CrashAttempt("j", PhaseMap, 0, 2, 1); !c {
		t.Fatal("attempt 2 with one prior crash should crash")
	}
	if c, _ := in.CrashAttempt("j", PhaseMap, 0, 3, 2); c {
		t.Fatal("attempt 3 exceeds MaxCrashesPerTask=2, must succeed")
	}
}

func TestTargetedCrashes(t *testing.T) {
	in := MustNew(Plan{Crashes: []TaskCrash{{Job: "wc", Phase: PhaseMap, Task: 3, UpToAttempt: 2}}})
	if c, _ := in.CrashAttempt("wc", PhaseMap, 3, 1, 0); !c {
		t.Fatal("targeted attempt 1 should crash")
	}
	if c, _ := in.CrashAttempt("wc", PhaseMap, 3, 2, 1); !c {
		t.Fatal("targeted attempt 2 should crash")
	}
	if c, _ := in.CrashAttempt("wc", PhaseMap, 3, 3, 2); c {
		t.Fatal("attempt 3 is past UpToAttempt, must succeed")
	}
	if c, _ := in.CrashAttempt("wc", PhaseMap, 4, 1, 0); c {
		t.Fatal("task 4 is not targeted")
	}
	if c, _ := in.CrashAttempt("other", PhaseMap, 3, 1, 0); c {
		t.Fatal("job selector must filter")
	}
	if c, _ := in.CrashAttempt("wc", PhaseReduce, 3, 1, 0); c {
		t.Fatal("phase selector must filter")
	}
}

func TestNodeDeathsAndSlowFactor(t *testing.T) {
	in := MustNew(Plan{
		NodeDeaths: []NodeDeath{{Node: 2, At: 90 * time.Second}, {Node: 2, At: 40 * time.Second}, {Node: 0, At: 10 * time.Second}},
		SlowNodes:  []SlowNode{{Node: 1, Factor: 2.5}},
	})
	if at, ok := in.DeathOf(2); !ok || at != 40*time.Second {
		t.Fatalf("DeathOf(2) = %v,%v want 40s,true (earliest death wins)", at, ok)
	}
	if _, ok := in.DeathOf(5); ok {
		t.Fatal("node 5 has no planned death")
	}
	deaths := in.NodeDeaths()
	if len(deaths) != 3 || deaths[0].Node != 0 || deaths[1].At != 40*time.Second {
		t.Fatalf("NodeDeaths not sorted by time: %+v", deaths)
	}
	if f := in.SlowFactor(1); f != 2.5 {
		t.Fatalf("SlowFactor(1) = %v want 2.5", f)
	}
	if f := in.SlowFactor(0); f != 1 {
		t.Fatalf("SlowFactor(0) = %v want 1", f)
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if c, _ := in.CrashAttempt("j", PhaseMap, 0, 1, 0); c {
		t.Fatal("nil injector crashed an attempt")
	}
	if f := in.SlowFactor(0); f != 1 {
		t.Fatalf("nil injector slow factor %v", f)
	}
	if in.Injected() != 0 || in.Counts() != nil || in.NodeDeaths() != nil {
		t.Fatal("nil injector leaked state")
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("crash=0.1,maxcrash=2,kill=3@90s,slow=1@2.0,taskfail=wc:map:*:3", 9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 9 || plan.TaskCrashProb != 0.1 || plan.MaxCrashesPerTask != 2 {
		t.Fatalf("probabilistic fields wrong: %+v", plan)
	}
	if len(plan.NodeDeaths) != 1 || plan.NodeDeaths[0] != (NodeDeath{Node: 3, At: 90 * time.Second}) {
		t.Fatalf("kill parsed wrong: %+v", plan.NodeDeaths)
	}
	if len(plan.SlowNodes) != 1 || plan.SlowNodes[0] != (SlowNode{Node: 1, Factor: 2}) {
		t.Fatalf("slow parsed wrong: %+v", plan.SlowNodes)
	}
	if len(plan.Crashes) != 1 || plan.Crashes[0] != (TaskCrash{Job: "wc", Phase: PhaseMap, Task: -1, UpToAttempt: 3}) {
		t.Fatalf("taskfail parsed wrong: %+v", plan.Crashes)
	}

	if _, err := ParsePlan("crash=1.5", 1); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := ParsePlan("crash=nan", 1); err == nil {
		t.Fatal("probability NaN accepted")
	}
	if err := (Plan{TaskCrashProb: math.NaN()}).Validate(); err == nil {
		t.Fatal("plan with crash probability NaN accepted")
	}
	for _, unknown := range []string{"bogus=1", "dfsfail=1", "blockerr=*:-1:100", "chaos=1"} {
		if _, err := ParsePlan(unknown, 1); err == nil || !strings.Contains(err.Error(), "unknown directive") {
			t.Fatalf("%s: %v, want an unknown directive", unknown, err)
		}
	}
	// A caller that runs only some sites refuses directives at the rest.
	if _, err := ParsePlan("service-crash:after=1", 1, SiteService); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePlan("service-crash:after=1,kill=0@1s", 1, SiteService); err == nil || !strings.Contains(err.Error(), `"kill=0@1s"`) {
		t.Fatalf("kill at a service-only caller: %v, want an error naming the directive", err)
	}
	if _, err := ParsePlan("kill=abc", 1); err == nil {
		t.Fatal("malformed kill accepted")
	}
	if _, err := ParsePlan("taskfail=a:b", 1); err == nil {
		t.Fatal("short taskfail accepted")
	}

	chaos, err := ParsePlan("chaos", 5)
	if err != nil {
		t.Fatal(err)
	}
	if chaos.TaskCrashProb != ChaosPlan(5).TaskCrashProb || chaos.Seed != 5 {
		t.Fatalf("chaos directive wrong: %+v", chaos)
	}

	empty, err := ParsePlan("  ", 1)
	if err != nil || !empty.Empty() {
		t.Fatalf("blank spec should give empty plan, got %+v, %v", empty, err)
	}
	if got := empty.String(); got != "none" {
		t.Fatalf("empty plan String() = %q", got)
	}
	if got := plan.String(); got == "" || got == "none" {
		t.Fatalf("plan String() = %q", got)
	}
	// Rendered plans must reparse to the same plan.
	again, err := ParsePlan(plan.String(), 9)
	if err != nil {
		t.Fatalf("String() round-trip: %v (spec %q)", err, plan.String())
	}
	if again.String() != plan.String() {
		t.Fatalf("round-trip mismatch: %q vs %q", again.String(), plan.String())
	}
}

// TestDirectiveSites: every directive parses at its own site and is
// refused, by name, at each of the others.
func TestDirectiveSites(t *testing.T) {
	cases := map[string]struct {
		spec string
		site Site
	}{
		"chaos":               {"chaos", SiteTask},
		"crash":               {"crash=0.5", SiteTask},
		"maxcrash":            {"maxcrash=1", SiteTask},
		"taskfail":            {"taskfail=*:map:0:1", SiteTask},
		"kill":                {"kill=0@1s", SiteNode},
		"slow":                {"slow=1@2", SiteNode},
		"driver-crash:after":  {"driver-crash:after=sketch", SiteDriver},
		"service-crash:after": {"service-crash:after=1", SiteService},
	}
	if len(cases) != len(directiveSites) {
		t.Fatalf("%d cases for %d directives", len(cases), len(directiveSites))
	}
	for key, c := range cases {
		t.Run(key, func(t *testing.T) {
			if site := directiveSites[key]; site != c.site {
				t.Fatalf("directive %q at site %q, want %q", key, site, c.site)
			}
			for _, sites := range [][]Site{nil, {c.site}, {SiteTask, SiteNode, SiteDriver, SiteService}} {
				if _, err := ParsePlan(c.spec, 1, sites...); err != nil {
					t.Fatalf("%s at sites %v: %v", c.spec, sites, err)
				}
			}
			for _, other := range []Site{SiteTask, SiteNode, SiteDriver, SiteService} {
				if other == c.site {
					continue
				}
				if _, err := ParsePlan(c.spec, 1, other); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.spec)) {
					t.Fatalf("%s at site %s: %v, want an error naming the directive", c.spec, other, err)
				}
			}
		})
	}
}
