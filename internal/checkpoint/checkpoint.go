// Package checkpoint journals the committed outputs of pipeline stages
// so a re-run driver can resume from the last durable stage instead of
// the raw reads — the cross-job half of the fault-tolerance story (the
// fault simulator in internal/mapreduce is the within-job half).
//
// The journal is a content-addressed manifest: each entry binds a stage
// name to the SHA-256 of its inputs, the SHA-256 of its relevant
// parameters, and the path of its committed output (whose own hash is
// recorded too). On resume, a stage is skipped only when all three still
// validate; the first stage with no entry is where execution restarts.
// A mismatched entry is a typed error naming the offending stage and the
// differing parameter — never a silent full re-run.
//
// Each output file is named by its content hash, so a commit never
// overwrites the file the durable manifest names: a crash at any point
// leaves the previous manifest and the output it names intact (Pillai et
// al., "All File Systems Are Not Created Equal", OSDI 2014).
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Store is the durable medium the journal lives on. dfs.FileSystem
// satisfies it structurally; DirStore adapts a local OS directory so a
// fresh process can resume a run a dead driver left behind.
type Store interface {
	WriteFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	Exists(path string) bool
	// Replace atomically moves from onto to, overwriting to if present.
	Replace(from, to string) error
	// List returns the paths under prefix, sorted.
	List(prefix string) []string
	Remove(path string) error
}

// Entry records one committed stage.
type Entry struct {
	// Stage names the pipeline stage ("sketch", "similarity", "greedy",
	// "cluster", or "store:<path>" for a Pig STORE).
	Stage string `json:"stage"`
	// InputsHash is the SHA-256 of the stage's input content.
	InputsHash string `json:"inputs"`
	// ParamsHash is the SHA-256 of the canonical rendering of Params.
	ParamsHash string `json:"params_hash"`
	// Params holds the stage-relevant parameters by name, so a mismatch
	// can be reported as the specific differing parameter.
	Params map[string]string `json:"params"`
	// Output is the journal-relative path of the committed stage output.
	Output string `json:"output"`
	// OutputHash is the SHA-256 of the committed output bytes.
	OutputHash string `json:"output_hash"`
}

// MissingError reports a resume against a checkpoint directory with no
// manifest at all — the caller asked to resume a run that never started
// (or whose journal was lost).
type MissingError struct {
	Dir string
}

func (e *MissingError) Error() string {
	where := fmt.Sprintf("under %q", e.Dir)
	if e.Dir == "" {
		where = "in the checkpoint directory" // a journal at the store's root
	}
	return fmt.Sprintf("checkpoint: no manifest %s — nothing to resume (run without --resume, or check --checkpoint-dir)", where)
}

// ParamMismatchError reports a manifest entry whose parameters differ
// from the current run's: resuming would silently mix configurations.
type ParamMismatchError struct {
	Stage string
	// Param is the first differing parameter name ("" when the recorded
	// entry predates parameter capture).
	Param    string
	Got      string // current run's value
	Recorded string // checkpointed value
	// GotSet and RecordedSet say whether each side records Param at all:
	// a side without it reads "not recorded", not an empty value.
	GotSet, RecordedSet bool
}

func (e *ParamMismatchError) Error() string {
	if e.Param == "" {
		return fmt.Sprintf("checkpoint: stage %q was checkpointed with different parameters (use --resume=force to discard)", e.Stage)
	}
	return fmt.Sprintf("checkpoint: stage %q parameter %s differs from checkpointed %s (use --resume=force to discard)",
		e.Stage, e.GotParam(), e.RecordedParam())
}

// GotParam renders the current run's side: "name=value", or
// "name (not recorded)".
func (e *ParamMismatchError) GotParam() string { return paramSide(e.Param, e.Got, e.GotSet) }

// RecordedParam renders the checkpointed side like GotParam.
func (e *ParamMismatchError) RecordedParam() string {
	return paramSide(e.Param, e.Recorded, e.RecordedSet)
}

func paramSide(name, value string, set bool) string {
	if !set {
		return name + " (not recorded)"
	}
	return name + "=" + value
}

// InputMismatchError reports a manifest entry recorded against different
// input content — the dataset changed under the checkpoint.
type InputMismatchError struct {
	Stage string
}

func (e *InputMismatchError) Error() string {
	return fmt.Sprintf("checkpoint: stage %q was checkpointed against different input data (use --resume=force to discard)", e.Stage)
}

// CorruptError reports a committed output whose bytes no longer match
// the hash the manifest recorded (or which disappeared entirely).
type CorruptError struct {
	Stage  string
	Output string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: stage %q output %q is corrupt: %s (use --resume=force to discard)", e.Stage, e.Output, e.Reason)
}

// Journal is the manifest of committed stages under one checkpoint
// directory. Not safe for concurrent use; the driver owns it.
type Journal struct {
	store   Store
	dir     string
	entries []Entry
}

// Open loads (or initializes) the journal under dir on store ("/" roots
// the journal at the store's top level). A missing manifest is not an
// error here — Validate distinguishes fresh runs from broken resumes.
func Open(store Store, dir string) (*Journal, error) {
	if !strings.HasPrefix(dir, "/") {
		return nil, fmt.Errorf("checkpoint: directory must be absolute, got %q", dir)
	}
	dir = strings.TrimSuffix(dir, "/")
	j := &Journal{store: store, dir: dir}
	if !store.Exists(j.manifestPath()) {
		return j, nil
	}
	raw, err := store.ReadFile(j.manifestPath())
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading manifest: %w", err)
	}
	for ln, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("checkpoint: manifest line %d: %w", ln+1, err)
		}
		j.entries = append(j.entries, e)
	}
	return j, nil
}

// Dir returns the checkpoint directory.
func (j *Journal) Dir() string { return j.dir }

// Sub opens the journal in subdirectory name of j's directory, on the
// same store: how a sweep keeps one journal per run under one
// checkpoint directory.
func (j *Journal) Sub(name string) (*Journal, error) {
	return Open(j.store, j.dir+"/"+name)
}

// Len returns the number of committed stage entries.
func (j *Journal) Len() int { return len(j.entries) }

// Empty reports whether the journal holds no committed stages.
func (j *Journal) Empty() bool { return len(j.entries) == 0 }

func (j *Journal) manifestPath() string { return j.dir + "/MANIFEST" }

// lookup finds a stage's entry.
func (j *Journal) lookup(stage string) (Entry, bool) {
	for _, e := range j.entries {
		if e.Stage == stage {
			return e, true
		}
	}
	return Entry{}, false
}

// Validate checks a stage's entry against the current run: inputs hash,
// parameters, and committed-output integrity. It returns (output, true,
// nil) with the verified output bytes when the stage can be skipped,
// (nil, false, nil) when the stage has no entry (it simply has not run
// yet), and a typed error when an entry exists but does not match — the
// caller must not silently re-run.
func (j *Journal) Validate(stage, inputsHash string, params map[string]string) ([]byte, bool, error) {
	e, ok := j.lookup(stage)
	if !ok {
		return nil, false, nil
	}
	if e.InputsHash != inputsHash {
		return nil, false, &InputMismatchError{Stage: stage}
	}
	if e.ParamsHash != HashParams(params) {
		// Name the first differing parameter, in sorted order for
		// deterministic messages.
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		for k := range e.Params {
			if _, dup := params[k]; !dup {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			got, gotSet := params[k]
			recorded, recordedSet := e.Params[k]
			if got != recorded || gotSet != recordedSet {
				return nil, false, &ParamMismatchError{
					Stage: stage, Param: k, Got: got, Recorded: recorded,
					GotSet: gotSet, RecordedSet: recordedSet,
				}
			}
		}
		return nil, false, &ParamMismatchError{Stage: stage}
	}
	data, err := j.store.ReadFile(e.Output)
	if err != nil {
		return nil, false, &CorruptError{Stage: stage, Output: e.Output, Reason: "committed output missing"}
	}
	if HashBytes(data) != e.OutputHash {
		return nil, false, &CorruptError{Stage: stage, Output: e.Output, Reason: "content hash mismatch"}
	}
	return data, true, nil
}

// Commit durably records a stage. The output is staged under _temporary
// and promoted by an atomic Replace to a new file named by its content
// hash, then the manifest is rewritten the same way. Only once that
// manifest is durable are the stage's superseded outputs removed. A
// crash at any point leaves the previous manifest and the output it
// names intact, so the stage validates as before or simply re-runs.
// Committing a stage that already has an entry replaces it.
func (j *Journal) Commit(stage, inputsHash string, params map[string]string, output []byte) (Entry, error) {
	sum := HashBytes(output)
	name := slugify(stage) + "." + sum[:16] // directly in the journal's directory
	out := j.dir + "/" + name
	tmp := j.dir + "/_temporary/" + name
	if err := j.store.WriteFile(tmp, output); err != nil {
		return Entry{}, fmt.Errorf("checkpoint: staging %s: %w", stage, err)
	}
	if err := j.store.Replace(tmp, out); err != nil {
		return Entry{}, fmt.Errorf("checkpoint: committing %s: %w", stage, err)
	}
	e := Entry{
		Stage:      stage,
		InputsHash: inputsHash,
		ParamsHash: HashParams(params),
		Params:     copyParams(params),
		Output:     out,
		OutputHash: sum,
	}
	// The journal takes the new entry only once its manifest is durable,
	// so a failed commit leaves it validating what the disk holds.
	kept := make([]Entry, 0, len(j.entries)+1)
	for _, old := range j.entries {
		if old.Stage != stage {
			kept = append(kept, old)
		}
	}
	kept = append(kept, e)
	if err := j.writeManifest(kept); err != nil {
		return Entry{}, err
	}
	j.entries = kept
	j.removeSuperseded(stage)
	return e, nil
}

// removeSuperseded deletes the output files of stage that no entry
// names: its previous outputs, and any a crashed commit left behind.
// Best effort: a file left over costs only disk space.
func (j *Journal) removeSuperseded(stage string) {
	named := make(map[string]bool, len(j.entries))
	for _, e := range j.entries {
		named[e.Output] = true
	}
	prefix := j.dir + "/" + slugify(stage) + "."
	for _, p := range j.store.List(prefix) {
		if !named[p] && !strings.Contains(p[len(prefix):], "/") {
			j.store.Remove(p)
		}
	}
}

// writeManifest atomically rewrites the manifest as JSONL.
func (j *Journal) writeManifest(entries []Entry) error {
	var sb strings.Builder
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("checkpoint: encoding manifest: %w", err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	tmp := j.dir + "/_temporary/MANIFEST"
	if err := j.store.WriteFile(tmp, []byte(sb.String())); err != nil {
		return fmt.Errorf("checkpoint: staging manifest: %w", err)
	}
	if err := j.store.Replace(tmp, j.manifestPath()); err != nil {
		return fmt.Errorf("checkpoint: committing manifest: %w", err)
	}
	return nil
}

// Discard deletes the journal and every committed stage output — the
// --resume=force path. The journal is reusable (empty) afterwards.
func (j *Journal) Discard() error {
	for _, p := range j.store.List(j.dir + "/") {
		if err := j.store.Remove(p); err != nil {
			return fmt.Errorf("checkpoint: discarding %s: %w", p, err)
		}
	}
	if j.store.Exists(j.manifestPath()) {
		if err := j.store.Remove(j.manifestPath()); err != nil {
			return err
		}
	}
	j.entries = nil
	return nil
}

// Stages lists the committed stage names in commit order.
func (j *Journal) Stages() []string {
	out := make([]string, len(j.entries))
	for i, e := range j.entries {
		out[i] = e.Stage
	}
	return out
}

// HashBytes returns the hex SHA-256 of data.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashParams canonically hashes a parameter map: keys sorted, rendered
// as "k=v" lines. Equal maps hash equal regardless of insertion order.
func HashParams(params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(params[k])
		sb.WriteByte('\n')
	}
	return HashBytes([]byte(sb.String()))
}

func copyParams(params map[string]string) map[string]string {
	out := make(map[string]string, len(params))
	for k, v := range params {
		out[k] = v
	}
	return out
}

// slugify makes a stage name path-safe ("store:/out/clusters" →
// "store--out-clusters").
func slugify(stage string) string {
	var sb strings.Builder
	for _, r := range stage {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}
