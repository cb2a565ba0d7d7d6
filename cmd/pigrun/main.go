// Command pigrun executes a Pig Latin script (the paper's Algorithm 3 or
// your own) against the simulated Hadoop stack: local files are staged
// into the in-memory DFS, the script runs as MapReduce jobs on a simulated
// N-node cluster, and STORE outputs are copied back out.
//
// Usage:
//
//	pigrun -script cluster.pig -stage reads.fa=/in/reads.fa \
//	       -p INPUT=/in/reads.fa -p OUTPUT1=/out/h -p OUTPUT2=/out/g \
//	       -p KMER=15 -p NUMHASH=50 -p DIV=1073741827 -p LINK=average \
//	       -p CUTOFF=0.3 -nodes 8 -dump /out/h
//
//	pigrun -algorithm3 -stage reads.fa=/in/reads.fa -nodes 8 \
//	       -p INPUT=/in/reads.fa -p KMER=15 -p NUMHASH=50 -p CUTOFF=0.3
//
// With -algorithm3 the embedded canonical script is used and OUTPUT1/
// OUTPUT2/DIV/LINK default sensibly.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/metagenomics/mrmcminh/internal/cli"
	"github.com/metagenomics/mrmcminh/internal/core"
	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/pig"
	"github.com/metagenomics/mrmcminh/internal/simulate"
)

// paramFlags collects repeated -p NAME=VALUE flags.
type paramFlags map[string]string

func (p paramFlags) String() string { return fmt.Sprint(map[string]string(p)) }

func (p paramFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" {
		return fmt.Errorf("expected NAME=VALUE, got %q", v)
	}
	p[parts[0]] = parts[1]
	return nil
}

// stageFlags collects repeated -stage local=dfs flags.
type stageFlags []string

func (s *stageFlags) String() string { return strings.Join(*s, ",") }

func (s *stageFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("expected LOCAL=DFSPATH, got %q", v)
	}
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pigrun:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	shared := cli.Register(flag.CommandLine)
	shared.Batch()
	params := paramFlags{}
	var stages stageFlags
	var (
		scriptPath = flag.String("script", "", "Pig script file (or pass it as the positional argument)")
		algo3      = flag.Bool("algorithm3", false, "run the embedded Algorithm 3 script")
		dump       = flag.String("dump", "", "DFS directory whose part files are printed after the run")
	)
	flag.Var(params, "p", "script parameter NAME=VALUE (repeatable)")
	flag.Var(&stages, "stage", "stage a local file into the DFS: LOCAL=DFSPATH (repeatable)")
	flag.Parse()
	if *scriptPath == "" && !*algo3 && flag.NArg() > 0 {
		*scriptPath = flag.Arg(0)
	}

	var src string
	switch {
	case *algo3:
		setDefault(params, "OUTPUT1", "/out/hierarchical")
		setDefault(params, "OUTPUT2", "/out/greedy")
		setDefault(params, "LINK", "average")
		setDefault(params, "DIV", "0")
	case *scriptPath != "":
		data, err := os.ReadFile(*scriptPath)
		if err != nil {
			return err
		}
		src = string(data)
	default:
		flag.Usage()
		return fmt.Errorf("either -script or -algorithm3 is required")
	}
	opt, err := shared.Options()
	if err != nil {
		return err
	}
	// Finish writes the trace whether the run succeeds or fails.
	defer func() { err = shared.Finish(opt, err) }()

	fs := dfs.MustNew(dfs.Config{NumDataNodes: opt.Cluster.Nodes, BlockSize: 256 * 1024, Replication: 3})
	fs.SetTrace(opt.Trace)
	for _, st := range stages {
		parts := strings.SplitN(st, "=", 2)
		data, err := os.ReadFile(parts[0])
		if err != nil {
			return err
		}
		if err := fs.WriteFile(parts[1], data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "staged %s -> dfs:%s (%d bytes)\n", parts[0], parts[1], len(data))
	}
	if len(stages) == 0 && params["INPUT"] == "" {
		if err := stageDemoInput(fs, params, opt.Seed); err != nil {
			return err
		}
	}

	if *algo3 {
		// Route through the typed entry point so DIV defaulting and
		// result extraction behave exactly like the library path.
		p, err := scriptParamsFrom(params)
		if err != nil {
			return err
		}
		res, err := core.RunScript(fs, p, opt)
		if err != nil {
			return err
		}
		for _, p := range res.Restored {
			fmt.Fprintf(os.Stderr, "resume: restored dfs:%s from checkpoint\n", p)
		}
		fmt.Fprintf(os.Stderr, "algorithm 3 complete: %d jobs, modelled time %v\n", res.Jobs, res.Virtual.Round(1e9))
		fmt.Fprintf(os.Stderr, "hierarchical clusters: %d, greedy clusters: %d\n",
			len(core.SortedClusterIDs(res.Hierarchical)), len(core.SortedClusterIDs(res.Greedy)))
	} else {
		script, err := pig.Compile(src)
		if err != nil {
			return err
		}
		ctx, err := core.NewPigContext(fs, params, opt)
		if err != nil {
			return err
		}
		res, err := script.Run(ctx)
		if err != nil {
			return err
		}
		for _, p := range res.Restored {
			fmt.Fprintf(os.Stderr, "resume: restored dfs:%s from checkpoint\n", p)
		}
		fmt.Fprintf(os.Stderr, "script complete: %d jobs, modelled time %v, %d aliases\n",
			res.Jobs, res.Virtual.Round(1e9), len(res.Aliases))
	}

	if *dump != "" {
		parts := fs.ListOutputs(*dump)
		if len(parts) == 0 {
			// A STOREd relation always leaves a part file, even when
			// empty.
			return fmt.Errorf("-dump %s: no output under that DFS directory", *dump)
		}
		for _, p := range parts {
			lines, err := fs.ReadLines(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "-- dfs:%s --\n", p)
			for _, l := range lines {
				fmt.Println(l)
			}
		}
	}

	return nil
}

// stageDemoInput fills the DFS with a small synthetic whole-metagenome
// sample (Table II S1, scaled down) when the user gave neither -stage nor
// -p INPUT, so scripts referencing $INPUT run out of the box.
func stageDemoInput(fs *dfs.FileSystem, params paramFlags, seed int64) error {
	spec := simulate.TableII()[0]
	reads, _, err := simulate.BuildWholeMetagenome(spec, 0.001, 0.005, seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := fasta.WriteAll(&buf, reads); err != nil {
		return err
	}
	if err := fs.WriteFile("/in/reads.fa", buf.Bytes()); err != nil {
		return err
	}
	params["INPUT"] = "/in/reads.fa"
	setDefault(params, "OUTPUT1", "/out/hierarchical")
	setDefault(params, "OUTPUT2", "/out/greedy")
	setDefault(params, "KMER", "5")
	setDefault(params, "NUMHASH", "50")
	setDefault(params, "DIV", "1031") // smallest prime > 4^5
	setDefault(params, "LINK", "average")
	setDefault(params, "CUTOFF", "0.9")
	fmt.Fprintf(os.Stderr, "no -stage/-p INPUT given: staged %d synthetic %s reads at dfs:/in/reads.fa\n",
		len(reads), spec.SID)
	return nil
}

// setDefault fills a parameter hole if unset.
func setDefault(p paramFlags, k, v string) {
	if _, ok := p[k]; !ok {
		p[k] = v
	}
}

// scriptParamsFrom converts -p flags into typed Algorithm 3 parameters.
func scriptParamsFrom(p paramFlags) (core.ScriptParams, error) {
	var sp core.ScriptParams
	var err error
	sp.Input = p["INPUT"]
	sp.Output1 = p["OUTPUT1"]
	sp.Output2 = p["OUTPUT2"]
	sp.Link = p["LINK"]
	if sp.Input == "" {
		return sp, fmt.Errorf("-p INPUT=<dfs path> is required")
	}
	if sp.K, err = atoiParam(p, "KMER", 5); err != nil {
		return sp, err
	}
	if sp.NumHash, err = atoiParam(p, "NUMHASH", 100); err != nil {
		return sp, err
	}
	div, err := atoiParam(p, "DIV", 0)
	if err != nil {
		return sp, err
	}
	sp.Div = uint64(div)
	cutoff := p["CUTOFF"]
	if cutoff == "" {
		cutoff = "0.9"
	}
	if _, err := fmt.Sscanf(cutoff, "%f", &sp.Cutoff); err != nil {
		return sp, fmt.Errorf("bad CUTOFF %q", cutoff)
	}
	return sp, nil
}

// atoiParam parses an integer parameter with a default.
func atoiParam(p paramFlags, name string, def int) (int, error) {
	v, ok := p[name]
	if !ok {
		return def, nil
	}
	var n int
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}
