package serve

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
)

// FlagSeed is -seed's default in caltrain-serve and caltrain-shard
// alike, so a daemon loads the index caltrain-shard trained offline.
const FlagSeed = 42

// ResolveDeployment is the one Deployment a daemon runs: the flag-bound
// overlay's or, when path names a -deployment file, that file's, whole.
// The file declares the entire topology, so any flag given beside it but
// those process allows — the ones saying where the process runs — is a
// conflict, reported by name. A refusal of the overlay names the knob by
// the flags given (spell).
func ResolveDeployment(fs *flag.FlagSet, overlay Config, path string, process map[string]bool) (Deployment, error) {
	if path == "" {
		dep, err := overlay.Deployment()
		if e := (*KnobError)(nil); errors.As(err, &e) {
			e.words = spell(e, fs)
		}
		return dep, err
	}
	var conflict string
	fs.Visit(func(f *flag.Flag) {
		if conflict == "" && !process[f.Name] {
			conflict = f.Name
		}
	})
	if conflict != "" {
		return Deployment{}, fmt.Errorf("-%s conflicts with -deployment: the config file declares the topology", conflict)
	}
	f, err := os.Open(path)
	if err != nil {
		return Deployment{}, err
	}
	defer f.Close()
	cfg, err := ParseConfig(f)
	if err != nil {
		return Deployment{}, err
	}
	return cfg.Deployment()
}

// spell words e by the flags of fs, through the key↔flag table of
// Config's tags: the knob by its flag, and a knob missing from a block
// by the flag that made the block present, "-fsync needs -wal". ""
// keeps the file's wording, for a knob no flag of fs binds.
func spell(e *KnobError, fs *flag.FlagSet) string {
	var name string
	var askers []string // the flags of e.By, in field order
	eachKnob(func(key, flag string) {
		if key == e.Key {
			name = flag
		} else if e.By != "" && (key == e.By || strings.HasPrefix(key, e.By+".")) {
			askers = append(askers, flag)
		}
	})
	if fs.Lookup(name) == nil {
		return ""
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if i := slices.IndexFunc(askers, func(a string) bool { return given[a] }); i >= 0 && !given[name] {
		return fmt.Sprintf("-%s needs -%s", askers[i], name)
	}
	return fmt.Sprintf("-%s %s", name, e.Why)
}

// BindFlags binds a flag to every field of the blocks (pointers to a
// Config or to its blocks) tagged flag:"name", with the usage tag as
// its help and the field's value now as its default, so a daemon's
// flag defaults are the literal it hands over. The walk descends into
// struct fields and the pointer-to-struct fields the literal fills.
//
// A pointer block tagged flag is optional: its presence is a setting (a
// wal block turns the write path on), so parse keeps it only when one
// of its flags was given, as a file would spell it. A non-empty tag
// names the block's own bool flag, which gives it alone (-repl,
// -repair).
func BindFlags(fs *flag.FlagSet, blocks ...any) (parse func(args []string) error) {
	var opts []optional
	for _, b := range blocks {
		bindStruct(fs, reflect.ValueOf(b).Elem(), &opts)
	}
	return func(args []string) error {
		if err := fs.Parse(args); err != nil {
			return err
		}
		given := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		for _, o := range opts {
			if !*o.on && !slices.ContainsFunc(o.flags, func(name string) bool { return given[name] }) {
				o.block.SetZero()
			}
		}
		return nil
	}
}

// optional is a block that parse keeps only when one of its flags was
// given or its own flag set.
type optional struct {
	block reflect.Value // the pointer field
	flags []string
	on    *bool
}

// bindStruct binds the tagged fields under the struct v and returns
// their flag names.
func bindStruct(fs *flag.FlagSet, v reflect.Value, opts *[]optional) []string {
	var names []string
	for i := range v.NumField() {
		f, fv := v.Type().Field(i), v.Field(i)
		name, tagged := f.Tag.Lookup("flag")
		switch {
		case fv.Kind() == reflect.Struct:
			names = append(names, bindStruct(fs, fv, opts)...)
		case fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct:
			if fv.IsNil() {
				continue
			}
			inner := bindStruct(fs, fv.Elem(), opts)
			if tagged {
				o := optional{block: fv, flags: inner, on: new(bool)}
				if name != "" {
					fs.BoolVar(o.on, name, false, f.Tag.Get("usage"))
					names = append(names, name)
				}
				*opts = append(*opts, o)
			}
			names = append(names, inner...)
		case tagged:
			bindField(fs, fv.Addr().Interface(), name, f.Tag.Get("usage"))
			names = append(names, name)
		}
	}
	return names
}

// bindField binds one knob through the flag package's own kind for its
// type, so -h prints it as a hand-written binding would.
func bindField(fs *flag.FlagSet, p any, name, usage string) {
	switch p := p.(type) {
	case *string:
		fs.StringVar(p, name, *p, usage)
	case *int:
		fs.IntVar(p, name, *p, usage)
	case *int64:
		fs.Int64Var(p, name, *p, usage)
	case *uint64:
		fs.Uint64Var(p, name, *p, usage)
	case *bool:
		fs.BoolVar(p, name, *p, usage)
	case *float64:
		fs.Float64Var(p, name, *p, usage)
	case **float64: // the literal points it at the default
		fs.Float64Var(*p, name, **p, usage)
	case *Duration:
		fs.Var(p, name, usage)
	case *[]Duration:
		fs.Var((*durationList)(p), name, usage)
	default:
		panic(fmt.Sprintf("serve: -%s binds a %T, which has no flag form", name, p))
	}
}

// KnobTable renders the knob flags of fs whose config key starts with
// under as a markdown table — flag, config key, default, meaning — in
// Config's field order: the README's knob tables.
func KnobTable(fs *flag.FlagSet, under string) string {
	var b strings.Builder
	b.WriteString("| Flag | Config key | Default | Meaning |\n|---|---|---|---|\n")
	eachKnob(func(key, name string) {
		if fl := fs.Lookup(name); fl != nil && strings.HasPrefix(key, under) {
			fmt.Fprintf(&b, "| `-%s` | `%s` | %s | %s |\n", fl.Name, key, fl.DefValue, fl.Usage)
		}
	})
	return b.String()
}

// byHand are the knobs a daemon binds by hand rather than from a tag,
// by the flag the daemon spells each with: caltrain-shard spells
// backend.kind -index, limits.max_k is the daemon's alone (the router
// refuses it), and topology.shards is a map, one -shard ID=a,b each.
var byHand = map[string]string{"backend.kind": "backend", "limits.max_k": "max-k", "topology.shards": "shard"}

// eachKnob calls fn with the config key and flag name of every field of
// Config tagged with a flag or bound by hand, in field order: the
// key↔flag table.
func eachKnob(fn func(key, flag string)) {
	var walk func(t reflect.Type, prefix string)
	walk = func(t reflect.Type, prefix string) {
		for i := range t.NumField() {
			f := t.Field(i)
			key := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
			if name := cmp.Or(f.Tag.Get("flag"), byHand[key]); name != "" {
				fn(key, name)
			}
			if ft := f.Type; ft.Kind() == reflect.Struct {
				walk(ft, key+".")
			} else if ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct {
				walk(ft.Elem(), key+".")
			}
		}
	}
	walk(reflect.TypeFor[Config](), "")
}

// durationList is the flag form of a []Duration field: a
// comma-separated list of unit-carrying durations ("100us,1ms,10ms").
type durationList []Duration

func (l *durationList) Set(s string) error {
	*l = nil
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		var d Duration
		if err := d.Set(strings.TrimSpace(part)); err != nil {
			return err
		}
		*l = append(*l, d)
	}
	return nil
}

func (l *durationList) String() string {
	parts := make([]string, len(*l))
	for i, d := range *l {
		parts[i] = d.String()
	}
	return strings.Join(parts, ",")
}
