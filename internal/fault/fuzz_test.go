package fault

import (
	"reflect"
	"testing"
)

// FuzzParse drives the -faults grammar with strings nobody hand-picked,
// starting from the committed seed corpus (testdata/fuzz/FuzzParse: the
// doc-comment example and every clause kind and option). Any input either
// fails to parse, or yields a valid plan whose String re-parses to the same
// plan — the grammar and its printer agree on everything Parse accepts.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid plan: %v", spec, err)
		}
		printed := p.String()
		q, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", spec, printed, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) = %+v, but its String %q re-parses to %+v", spec, p, printed, q)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("re-parsed plan %q is invalid: %v", printed, err)
		}
	})
}
