package arch

import (
	"testing"
	"testing/quick"
)

func ws(name string, speed float64) Machine {
	return Machine{Name: name, Class: Workstation, Speed: speed, MemoryMB: 64, OS: "unix", Order: BigEndian}
}

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range []Class{SIMD, MIMD, Vector, Workstation} {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %v -> %v", c, got)
		}
	}
}

func TestParseClassCaseInsensitive(t *testing.T) {
	c, err := ParseClass(" simd ")
	if err != nil || c != SIMD {
		t.Fatalf("ParseClass(simd) = %v, %v", c, err)
	}
	if _, err := ParseClass("quantum"); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Upper-casing maps the long s and the dotless i onto ASCII letters,
	// and lower-casing maps the Kelvin sign onto k: none is a keyword.
	for _, s := range []string{"\u017fimd", "m\u0131md", "wor\u212astation"} {
		if c, err := ParseClass(s); err == nil {
			t.Errorf("ParseClass(%q) = %v, want an unknown class", s, c)
		}
	}
}

func TestProblemClassMapping(t *testing.T) {
	if got := Synchronous.MachineClasses(); len(got) == 0 || got[0] != SIMD {
		t.Fatalf("Synchronous maps to %v, want SIMD first (paper §4.1)", got)
	}
	if got := Asynchronous.MachineClasses(); len(got) == 0 || got[0] != MIMD {
		t.Fatalf("Asynchronous maps to %v, want MIMD first", got)
	}
	if got := ProblemUnknown.MachineClasses(); got != nil {
		t.Fatalf("unknown problem class maps to %v", got)
	}
}

func TestObjectCodeCompatibility(t *testing.T) {
	a := ws("a", 1)
	b := ws("b", 2)
	if !a.ObjectCodeCompatible(b) {
		t.Fatal("same class/os/order should be compatible")
	}
	c := b
	c.Order = LittleEndian
	if a.ObjectCodeCompatible(c) {
		t.Fatal("different byte order must not be compatible")
	}
	d := b
	d.Class = MIMD
	if a.ObjectCodeCompatible(d) {
		t.Fatal("different class must not be compatible")
	}
}

func TestRequirementsAdmits(t *testing.T) {
	m := Machine{Name: "cm5", Class: SIMD, Speed: 50, MemoryMB: 1024, OS: "cmost", Tags: []string{"bigmem"}}
	tests := []struct {
		name string
		req  Requirements
		want bool
	}{
		{"empty admits", Requirements{}, true},
		{"class match", Requirements{Classes: []Class{SIMD}}, true},
		{"class mismatch", Requirements{Classes: []Class{Workstation}}, false},
		{"multi class", Requirements{Classes: []Class{MIMD, SIMD}}, true},
		{"memory ok", Requirements{MinMemoryMB: 512}, true},
		{"memory too small", Requirements{MinMemoryMB: 2048}, false},
		{"speed ok", Requirements{MinSpeed: 10}, true},
		{"speed too slow", Requirements{MinSpeed: 100}, false},
		{"tag present", Requirements{Tags: []string{"bigmem"}}, true},
		{"tag missing", Requirements{Tags: []string{"graphics"}}, false},
		{"pinned match", Requirements{Machine: "cm5"}, true},
		{"pinned mismatch", Requirements{Machine: "mp1"}, false},
	}
	for _, tc := range tests {
		if got := tc.req.Admits(m); got != tc.want {
			t.Errorf("%s: Admits = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDBAddValidation(t *testing.T) {
	db := NewDB()
	if err := db.Add(Machine{Name: "", Class: SIMD, Speed: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := db.Add(Machine{Name: "x", Speed: 1}); err == nil {
		t.Fatal("unknown class accepted")
	}
	if err := db.Add(Machine{Name: "x", Class: SIMD, Speed: 0}); err == nil {
		t.Fatal("zero speed accepted")
	}
	if err := db.Add(ws("ok", 1)); err != nil {
		t.Fatalf("valid machine rejected: %v", err)
	}
}

func TestDBCRUD(t *testing.T) {
	db := NewDB()
	for _, m := range []Machine{ws("b", 1), ws("a", 2), {Name: "cm5", Class: SIMD, Speed: 50, OS: "cmost"}} {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.machines) != 3 {
		t.Fatalf("len = %d", len(db.machines))
	}
	if _, ok := db.Get("a"); !ok {
		t.Fatal("a missing")
	}
	all := db.Candidates(Requirements{})
	if len(all) != 3 || all[0].Name != "cm5" || all[1].Name != "a" || all[2].Name != "b" {
		t.Fatalf("Candidates not speed-sorted: %v", all)
	}
	db.Remove("a")
	if _, ok := db.Get("a"); ok {
		t.Fatal("a still present after Remove")
	}
	db.Remove("a") // removing absent machine is a no-op
	if len(db.machines) != 2 {
		t.Fatalf("len after removes = %d", len(db.machines))
	}
}

func TestDBUpdateOverwrites(t *testing.T) {
	db := NewDB()
	_ = db.Add(ws("a", 1))
	_ = db.Add(ws("a", 9))
	m, _ := db.Get("a")
	if m.Speed != 9 {
		t.Fatalf("update did not overwrite: speed = %v", m.Speed)
	}
	if len(db.machines) != 1 {
		t.Fatalf("duplicate names created extra entries: %d", len(db.machines))
	}
}

func TestDBCandidatesOrdering(t *testing.T) {
	db := NewDB()
	_ = db.Add(ws("slow", 1))
	_ = db.Add(ws("fast", 4))
	_ = db.Add(ws("mid", 2))
	_ = db.Add(Machine{Name: "cm5", Class: SIMD, Speed: 100, OS: "cmost"})
	got := db.Candidates(Requirements{Classes: []Class{Workstation}})
	if len(got) != 3 || got[0].Name != "fast" || got[1].Name != "mid" || got[2].Name != "slow" {
		t.Fatalf("candidates order wrong: %v", got)
	}
}

func TestDBCandidatesTieBreakByName(t *testing.T) {
	db := NewDB()
	_ = db.Add(ws("zeta", 2))
	_ = db.Add(ws("alpha", 2))
	got := db.Candidates(Requirements{Classes: []Class{Workstation}})
	if got[0].Name != "alpha" {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

func TestDBConcurrentAccess(t *testing.T) {
	db := NewDB()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = db.Add(ws("m", float64(i+1)))
			db.Remove("m")
		}
	}()
	for i := 0; i < 500; i++ {
		db.Candidates(Requirements{})
		db.Get("m")
	}
	<-done
}

func TestAdmitsPropertyPinnedNeverAdmitsOthers(t *testing.T) {
	f := func(pin, name string) bool {
		if pin == "" || pin == name {
			return true
		}
		req := Requirements{Machine: pin}
		return !req.Admits(ws(name, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByteOrderString(t *testing.T) {
	if BigEndian.String() != "big" || LittleEndian.String() != "little" {
		t.Fatal("byte order strings wrong")
	}
}

func TestHasTag(t *testing.T) {
	m := Machine{Tags: []string{"graphics", "bigmem"}}
	if !m.HasTag("bigmem") || m.HasTag("gpu") {
		t.Fatal("tag lookup wrong")
	}
}

func TestClassStringUnknown(t *testing.T) {
	if ClassUnknown.String() != "UNKNOWN" || ProblemUnknown.String() != "UNKNOWN" {
		t.Fatal("zero-value strings wrong")
	}
}
