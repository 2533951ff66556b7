package httpgate

import (
	"net/url"
	"testing"
)

// FuzzQueryValue pins QueryValue to net/url: for any raw query and key it
// must return what url.ParseQuery(raw).Get(key) returns, including for
// repeated keys, escaped keys, ';'-bearing pairs and malformed escapes.
func FuzzQueryValue(f *testing.F) {
	for _, c := range [][2]string{
		{"pnr=PNR00001", "pnr"},
		{"a=1&pnr=PNR00002&pnr=PNR00003", "pnr"},
		{"pnr=&pnr=later", "pnr"},
		{"pnr", "pnr"},
		{"=v", ""},
		{"&&pnr=x&&", "pnr"},
		{"p%6Er=escaped-key", "pnr"},
		{"pnr=a%20b+c", "pnr"},
		{"pnr=bad%zz&pnr=good", "pnr"},
		{"pnr=%4", "pnr"},
		{"p%zr=x&pnr=y", "pnr"},
		{"pnr=x;y&pnr=z", "pnr"},
		{"a+b=sp", "a b"},
		{"a%2Bb=plus", "a+b"},
		{"pnr=%E2%9C%93", "pnr"},
		{"", "pnr"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		m, _ := url.ParseQuery(raw)
		if got, want := QueryValue(raw, key), m.Get(key); got != want {
			t.Fatalf("QueryValue(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}

// TestQueryValueZeroAllocs pins the plain-value case to no allocation:
// the value is returned as a substring of the raw query.
func TestQueryValueZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	raw := "seat=12A&pnr=PNR00042&lang=en"
	if avg := testing.AllocsPerRun(256, func() {
		if QueryValue(raw, "pnr") != "PNR00042" {
			t.Fatal("wrong value")
		}
	}); avg != 0 {
		t.Fatalf("QueryValue allocates %v/op, want 0", avg)
	}
}
