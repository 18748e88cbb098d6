package relational

import (
	"strings"
	"testing"
)

// TestKeywordMatchesToUpper pins the allocation-free keyword probe to
// the strings.ToUpper lookup it replaced, including non-ASCII words
// whose upper case is an ASCII keyword.
func TestKeywordMatchesToUpper(t *testing.T) {
	for _, w := range []string{
		"select", "SELECT", "SeLeCt", "distinct", "stddev", "by", "x", "",
		"patients", "distincts", "selectx", "dıstınct", "ſelect", "séléct", "_id", "COUNT",
	} {
		up, ok := keyword(w)
		want, wantOK := keywords[strings.ToUpper(w)]
		if ok != wantOK || up != want {
			t.Errorf("keyword(%q) = %q, %v; want %q, %v", w, up, ok, want, wantOK)
		}
	}
}
