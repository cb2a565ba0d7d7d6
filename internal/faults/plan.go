package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ChaosPlan is the moderate random-fault profile the CI chaos matrix runs
// across seeds: attempts crash with 8% probability (at most twice per
// task, inside the engine's default four-attempt budget). Deaths and slow
// nodes are site-specific, so callers add them per cluster shape.
func ChaosPlan(seed int64) Plan {
	return Plan{Seed: seed, TaskCrashProb: 0.08, MaxCrashesPerTask: 2}
}

// Site is the part of the stack a directive breaks. A command can inject
// only at the sites it runs: the batch pipelines run the task, node and
// driver sites, the serving daemon only the service site.
type Site string

// The fault sites.
const (
	SiteTask    Site = "task"    // MapReduce task attempts
	SiteNode    Site = "node"    // simulated cluster nodes
	SiteDriver  Site = "driver"  // the pipeline driver between stages
	SiteService Site = "service" // the serving daemon
)

// directiveSites maps each directive of ParsePlan's grammar to its site.
var directiveSites = map[string]Site{
	"chaos": SiteTask, "crash": SiteTask, "maxcrash": SiteTask, "taskfail": SiteTask,
	"kill": SiteNode, "slow": SiteNode,
	"driver-crash:after":  SiteDriver,
	"service-crash:after": SiteService,
}

// ParsePlan builds a plan from a comma-separated spec string, the format
// behind the CLIs' --faults flag. Directives, by site:
//
//	task     chaos                     moderate random profile (see ChaosPlan)
//	task     crash=P                   attempt crash probability in [0,1]
//	task     maxcrash=N                cap probabilistic crashes per task
//	task     taskfail=JOB:PHASE:T:N    attempts 1..N of task T crash ("*" wildcards)
//	node     kill=NODE@DUR             node death at virtual time DUR (e.g. 2@90s)
//	node     slow=NODE@FACTOR          node runs FACTOR× slower (e.g. 1@2.5)
//	driver   driver-crash:after=STAGE  kill the driver after STAGE commits its checkpoint
//	service  service-crash:after=N     kill the serving daemon after N acknowledged reads
//
// When sites are given, a directive at any other site is an error naming
// it. The seed parameter feeds every probabilistic site; an empty spec
// returns the zero plan.
func ParsePlan(spec string, seed int64, sites ...Site) (Plan, error) {
	plan := Plan{Seed: seed}
	if strings.TrimSpace(spec) == "" {
		return plan, nil
	}
	for _, dir := range strings.Split(spec, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		key, val, ok := strings.Cut(dir, "=")
		site, known := directiveSites[key]
		if !known {
			return Plan{}, fmt.Errorf("faults: unknown directive %q", key)
		}
		if len(sites) > 0 && !slices.Contains(sites, site) {
			return Plan{}, fmt.Errorf("faults: directive %q injects %s faults, but only %v faults can be injected here", dir, site, sites)
		}
		if dir == "chaos" {
			c := ChaosPlan(seed)
			plan.TaskCrashProb = c.TaskCrashProb
			plan.MaxCrashesPerTask = c.MaxCrashesPerTask
			continue
		}
		if !ok {
			return Plan{}, fmt.Errorf("faults: directive %q is not key=value", dir)
		}
		var err error
		switch key {
		case "crash":
			plan.TaskCrashProb, err = parseProb(val)
		case "maxcrash":
			plan.MaxCrashesPerTask, err = strconv.Atoi(val)
		case "taskfail":
			var tc TaskCrash
			tc, err = parseTaskFail(val)
			plan.Crashes = append(plan.Crashes, tc)
		case "kill":
			var nd NodeDeath
			nd, err = parseNodeAt(val)
			plan.NodeDeaths = append(plan.NodeDeaths, nd)
		case "slow":
			var sn SlowNode
			sn, err = parseSlow(val)
			plan.SlowNodes = append(plan.SlowNodes, sn)
		case "driver-crash:after":
			plan.DriverCrashes = append(plan.DriverCrashes, DriverCrash{AfterStage: val})
		case "service-crash:after":
			var n int
			n, err = strconv.Atoi(val)
			plan.ServiceCrashes = append(plan.ServiceCrashes, ServiceCrash{AfterReads: n})
		default:
			return Plan{}, fmt.Errorf("faults: unknown directive %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faults: directive %q: %w", dir, err)
		}
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// String renders the plan in ParsePlan's grammar (probabilistic and
// targeted sites; useful for logging the active chaos profile).
func (p Plan) String() string {
	var parts []string
	if p.TaskCrashProb > 0 {
		parts = append(parts, fmt.Sprintf("crash=%g", p.TaskCrashProb))
	}
	if p.MaxCrashesPerTask > 0 {
		parts = append(parts, fmt.Sprintf("maxcrash=%d", p.MaxCrashesPerTask))
	}
	for _, tc := range p.Crashes {
		parts = append(parts, fmt.Sprintf("taskfail=%s:%s:%s:%d",
			wildcardStr(tc.Job), wildcardStr(tc.Phase), wildcardInt(tc.Task), tc.UpToAttempt))
	}
	for _, nd := range p.NodeDeaths {
		parts = append(parts, fmt.Sprintf("kill=%d@%s", nd.Node, nd.At))
	}
	for _, sn := range p.SlowNodes {
		parts = append(parts, fmt.Sprintf("slow=%d@%g", sn.Node, sn.Factor))
	}
	for _, dc := range p.DriverCrashes {
		parts = append(parts, fmt.Sprintf("driver-crash:after=%s", dc.AfterStage))
	}
	for _, sc := range p.ServiceCrashes {
		parts = append(parts, fmt.Sprintf("service-crash:after=%d", sc.AfterReads))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func wildcardStr(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

func wildcardInt(i int) string {
	if i < 0 {
		return "*"
	}
	return strconv.Itoa(i)
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %v out of [0,1]", p)
	}
	return p, nil
}

// parseTaskFail parses JOB:PHASE:TASK:UPTO with "*" wildcards.
func parseTaskFail(val string) (TaskCrash, error) {
	parts := strings.Split(val, ":")
	if len(parts) != 4 {
		return TaskCrash{}, fmt.Errorf("want JOB:PHASE:TASK:UPTO, got %d fields", len(parts))
	}
	tc := TaskCrash{Job: starEmpty(parts[0]), Phase: starEmpty(parts[1]), Task: -1}
	if tc.Phase != "" && tc.Phase != PhaseMap && tc.Phase != PhaseReduce {
		return TaskCrash{}, fmt.Errorf("phase %q is not map/reduce/*", parts[1])
	}
	if parts[2] != "*" {
		t, err := strconv.Atoi(parts[2])
		if err != nil {
			return TaskCrash{}, err
		}
		tc.Task = t
	}
	upTo, err := strconv.Atoi(parts[3])
	if err != nil {
		return TaskCrash{}, err
	}
	if upTo < 1 {
		return TaskCrash{}, fmt.Errorf("up-to attempt %d must be >= 1", upTo)
	}
	tc.UpToAttempt = upTo
	return tc, nil
}

// parseNodeAt parses NODE@DURATION.
func parseNodeAt(val string) (NodeDeath, error) {
	nodeStr, durStr, ok := strings.Cut(val, "@")
	if !ok {
		return NodeDeath{}, fmt.Errorf("want NODE@DURATION")
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return NodeDeath{}, err
	}
	at, err := time.ParseDuration(durStr)
	if err != nil {
		return NodeDeath{}, err
	}
	return NodeDeath{Node: node, At: at}, nil
}

// parseSlow parses NODE@FACTOR.
func parseSlow(val string) (SlowNode, error) {
	nodeStr, facStr, ok := strings.Cut(val, "@")
	if !ok {
		return SlowNode{}, fmt.Errorf("want NODE@FACTOR")
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return SlowNode{}, err
	}
	factor, err := strconv.ParseFloat(facStr, 64)
	if err != nil {
		return SlowNode{}, err
	}
	return SlowNode{Node: node, Factor: factor}, nil
}

func starEmpty(s string) string {
	if s == "*" {
		return ""
	}
	return s
}
