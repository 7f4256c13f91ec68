package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// fileOnly are the knobs no flag spells, each for the reason given
// where it is declared.
var fileOnly = []string{"shards", "replicas_per_shard", "volatile_writes",
	"observability.metrics", "observability.debug_addr", "topology.repair.sync_timeout"}

// shape binds a command line the way one daemon does: the tagged knobs
// of its blocks through BindFlags, the byHand ones by hand.
type shape struct {
	name string
	bind func(fs *flag.FlagSet) (*Config, func([]string) error)
}

var shapes = []shape{
	{"caltrain-serve", func(fs *flag.FlagSet) (*Config, func([]string) error) {
		drift, one := 0.25, 1.0
		c := &Config{WAL: &WALConfig{DriftThreshold: &drift}, Limits: &LimitsConfig{},
			Observability: &ObservabilityConfig{Trace: &TraceConfig{SampleRate: &one}}, Replication: &ReplicationConfig{}}
		fs.StringVar(&c.Backend.Kind, "backend", "", "")
		fs.IntVar(&c.Limits.MaxK, "max-k", 0, "")
		return c, BindFlags(fs, c)
	}},
	{"caltrain-router", func(fs *flag.FlagSet) (*Config, func([]string) error) {
		one := 1.0
		c := &Config{Topology: &TopologyConfig{Map: "m.ctsm", Shards: map[string][]string{"0": {"a:1"}}, Repair: &RepairConfig{}},
			Limits: &LimitsConfig{}, Observability: &ObservabilityConfig{Trace: &TraceConfig{SampleRate: &one}}}
		fs.Var((*shardFlag)(&c.Topology.Shards), "shard", "")
		return c, BindFlags(fs, c.Topology, c.Limits, c.Observability)
	}},
}

// shardFlag is the router's -shard ID=addr[,addr…], for one shard.
type shardFlag map[string][]string

func (s *shardFlag) String() string {
	for id, addrs := range *s {
		return id + "=" + strings.Join(addrs, ",")
	}
	return ""
}

func (s *shardFlag) Set(v string) error {
	id, addrs, _ := strings.Cut(v, "=")
	*s = shardFlag{id: strings.Split(addrs, ",")}
	return nil
}

// samples are the values a case draws a knob from, as a command line
// spells them: ones validation accepts, and ones it refuses.
func samples(key string, t reflect.Type) (valid, refused []string) {
	switch key {
	case "backend.kind":
		return []string{"", "flat", "ivf", "ivfpq"}, []string{"annoy"}
	case "wal.fsync":
		return []string{"always", "interval", "never", ""}, []string{"sometimes"}
	case "observability.tracing.sample_rate":
		return []string{"0", "0.05", "1"}, []string{"-1", "1.5"}
	case "topology.shards":
		return []string{"0=a:1", "0=a:1,b:2"}, []string{"0=a:1,", "00=a:1"}
	}
	switch t {
	case reflect.TypeFor[string]():
		return []string{"w"}, []string{""}
	case reflect.TypeFor[bool]():
		return []string{"true", "false"}, nil
	case reflect.TypeFor[uint64]():
		return []string{"0", "1", "42"}, nil
	case reflect.TypeFor[*float64]():
		return []string{"-1", "0.05", "0.5", "1.5"}, []string{"0"}
	case reflect.TypeFor[Duration]():
		return []string{"0s", "1ms", "250ms", "10m"}, []string{"-1s"}
	case reflect.TypeFor[[]Duration]():
		return []string{"", "100us,1ms", "5ms"}, []string{"500ns"}
	}
	return []string{"0", "1", "7", "256"}, []string{"-1", fmt.Sprint(maxTraceStore + 1)}
}

// jsonOf is the file's spelling of the command-line value v of a knob
// of type t.
func jsonOf(t reflect.Type, v string) any {
	switch t {
	case reflect.TypeFor[string](), reflect.TypeFor[Duration]():
		return v
	case reflect.TypeFor[[]Duration]():
		if v == "" || v == "[]" {
			return nil
		}
		return strings.Split(v, ",")
	case reflect.TypeFor[map[string][]string]():
		if v == "" {
			return nil
		}
		id, addrs, _ := strings.Cut(v, "=")
		return map[string][]string{id: strings.Split(addrs, ",")}
	}
	return json.RawMessage(v)
}

// drawCase renders one random config of sh both ways: as the argv its
// flags parse and as the -deployment document of the same knobs. The
// document follows the file's presence rule — a block is there if and
// only if one of its keys is written — and spells every other knob of
// a present block at its flag default, which the flags hold.
func drawCase(rng *rand.Rand, sh shape) (argv []string, doc []byte) {
	fs := flag.NewFlagSet(sh.name, flag.ContinueOnError)
	c, _ := sh.bind(fs)
	var render func(v reflect.Value, prefix string, optional bool, own string) map[string]any
	render = func(v reflect.Value, prefix string, optional bool, own string) map[string]any {
		block, written := map[string]any{}, false
		if optional && rng.IntN(2) == 0 {
			return nil // no key of the block written
		}
		if own != "" && rng.IntN(4) == 0 {
			argv, written = append(argv, "-"+own), true
		}
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			name := strings.Split(f.Tag.Get("json"), ",")[0]
			key := prefix + name
			switch {
			case name == "-":
			case fv.Kind() == reflect.Struct:
				block[name] = render(fv, key+".", false, "")
			case fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct:
				tag, tagged := f.Tag.Lookup("flag")
				if fv.IsNil() {
					continue
				}
				if inner := render(fv.Elem(), key+".", tagged, tag); inner != nil {
					block[name], written = inner, true
				}
			default:
				fl := fs.Lookup(cmp.Or(f.Tag.Get("flag"), byHand[key]))
				if fl == nil {
					continue
				}
				// An optional block's first knob heads it: wal.dir.
				val := fl.DefValue
				if rng.IntN(3) == 0 || (optional && i == 0 && rng.IntN(2) == 0) {
					s, refused := samples(key, f.Type)
					if len(refused) > 0 && rng.IntN(8) == 0 {
						s = refused
					}
					val, written = s[rng.IntN(len(s))], true
					argv = append(argv, "-"+fl.Name+"="+val)
				}
				block[name] = jsonOf(f.Type, val)
			}
		}
		if optional && !written {
			return nil
		}
		return block
	}
	doc, err := json.Marshal(render(reflect.ValueOf(c).Elem(), "", false, ""))
	if err != nil {
		panic(err)
	}
	return argv, doc
}

// checkParity draws a case of every shape from seed and holds its two
// spellings to one outcome: deep-equal Deployments, or refusals naming
// the same knob — the file's by its key, the command line's by its
// flag where it has one.
func checkParity(t *testing.T, seed uint64) {
	t.Helper()
	for _, sh := range shapes {
		argv, doc := drawCase(rand.New(rand.NewPCG(seed, 46)), sh)
		fs := flag.NewFlagSet(sh.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c, parse := sh.bind(fs)
		if err := parse(argv); err != nil {
			t.Fatalf("seed %d, %s: %q does not parse: %v", seed, sh.name, argv, err)
		}
		flagDep, flagErr := ResolveDeployment(fs, *c, "", nil)
		var fileDep Deployment
		cfg, fileErr := ParseConfig(strings.NewReader(string(doc)))
		if fileErr == nil {
			fileDep, fileErr = cfg.Deployment()
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, %s:\n  argv %q\n  file %s\n%s", seed, sh.name, argv, doc, fmt.Sprintf(format, args...))
		}
		var flagKnob, fileKnob *KnobError
		switch {
		case flagErr == nil && fileErr == nil:
			if !reflect.DeepEqual(flagDep, fileDep) {
				fail("the flags build %+v, the file %+v", flagDep, fileDep)
			}
		case flagErr == nil || fileErr == nil:
			fail("the flags give %v, the file %v", flagErr, fileErr)
		case errors.As(flagErr, &flagKnob) && errors.As(fileErr, &fileKnob):
			if flagKnob.Key != fileKnob.Key {
				fail("the flags refuse %s (%v), the file %s (%v)", flagKnob.Key, flagErr, fileKnob.Key, fileErr)
			}
			name := fileKnob.Key // unless a tag spells it on this command line
			if flag := tagFlag(name); fs.Lookup(flag) != nil {
				name = "-" + flag
			}
			if !strings.Contains(fileErr.Error(), fileKnob.Key) || !strings.Contains(flagErr.Error(), name) {
				fail("the file's refusal %q must name %s, the flags' %q must name %s", fileErr, fileKnob.Key, flagErr, name)
			}
		case flagErr.Error() != fileErr.Error():
			fail("the flags are refused with %q, the file with %q", flagErr, fileErr)
		default: // both in the file's words: right only for a knob no flag here spells
			eachKnob(func(key, flag string) {
				if fs.Lookup(flag) != nil && strings.Contains(flagErr.Error(), key) {
					fail("the flags' refusal %q names %s, not -%s", flagErr, key, flag)
				}
			})
		}
	}
}

// tagFlag is the flag the key↔flag table gives key, "" for none.
func tagFlag(key string) (name string) {
	eachKnob(func(k, flag string) {
		if k == key {
			name = flag
		}
	})
	return name
}

// TestFlagsFileParity is a property test of "flags and file are one
// language": random valid and invalid configs, generated from the
// flag and json tags, rendered as a command line and as a -deployment
// file. Every leaf knob is tagged with its flag, bound by hand, or
// file only; the seed is printed on failure.
func TestFlagsFileParity(t *testing.T) {
	var leaves []string
	var walk func(t reflect.Type, prefix string)
	walk = func(t reflect.Type, prefix string) {
		for i := range t.NumField() {
			f := t.Field(i)
			key := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
			switch ft := f.Type; {
			case f.Tag.Get("json") == "-":
			case ft.Kind() == reflect.Struct:
				walk(ft, key+".")
			case ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct:
				walk(ft.Elem(), key+".")
			case f.Tag.Get("flag") == "" && byHand[key] == "":
				leaves = append(leaves, key)
			}
		}
	}
	walk(reflect.TypeFor[Config](), "")
	if !slices.Equal(leaves, fileOnly) {
		t.Fatalf("the knobs no flag spells are %q, want exactly %q: give a new knob a flag tag, or a reason to be file only", leaves, fileOnly)
	}
	base := uint64(time.Now().UnixNano())
	for i := range uint64(400) {
		checkParity(t, base+i)
	}
}

// FuzzFlagsFileParity drives TestFlagsFileParity's generator from
// fuzzed seeds. The corpus seeds caltrain-serve cases of what an earlier
// binder got wrong: a valid -snapshot-every (6, 37), which had no file
// key, and -wal "" (25, 390) or a wal flag without -wal (74, 96), both
// refused by the file key.
func FuzzFlagsFileParity(f *testing.F) {
	for _, seed := range []uint64{6, 37, 25, 390, 74, 96} {
		f.Add(seed)
	}
	f.Fuzz(checkParity)
}

// TestKnobTablePrintsFlagSyntax: a knob table's Default column is what
// one types after the flag — a list comma-joined, nothing when unset —
// never Go's print of the value (map[], []).
func TestKnobTablePrintsFlagSyntax(t *testing.T) {
	for _, sh := range shapes {
		fs := flag.NewFlagSet(sh.name, flag.ContinueOnError)
		sh.bind(fs)
		if table := KnobTable(fs, ""); strings.Contains(table, "map[") || strings.Contains(table, "[]") {
			t.Errorf("%s's knob table prints Go syntax as a default:\n%s", sh.name, table)
		}
	}
}
