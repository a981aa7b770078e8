package p2p

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestKeywords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Britney Spears - Toxic.mp3", []string{"britney", "spears", "toxic", "mp3"}},
		{"setup_v2.EXE", []string{"setup", "v2", "exe"}},
		{"a b c", nil},                           // single-rune tokens dropped
		{"hello hello HELLO", []string{"hello"}}, // dedup
		{"", nil},
		{"...---...", nil},
	}
	for _, c := range cases {
		got := Keywords(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Keywords(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Keywords(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestKeywordsNeverEmptyStrings(t *testing.T) {
	f := func(s string) bool {
		for _, kw := range Keywords(s) {
			if len(kw) < 2 || kw != strings.ToLower(kw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestURNSHA1(t *testing.T) {
	u := URNSHA1([]byte("abc"))
	if !strings.HasPrefix(u, "urn:sha1:") {
		t.Fatalf("URN = %q", u)
	}
	// SHA1("abc") base32 is well known.
	if u != "urn:sha1:VGMT4NSHA2AWVOR6EVYXQUGCNSONBWE5" {
		t.Fatalf("URN = %q", u)
	}
	if URNSHA1([]byte("abc")) != u {
		t.Fatal("not deterministic")
	}
	if URNSHA1([]byte("abd")) == u {
		t.Fatal("collision on different content")
	}
}

func TestLibraryAddMatch(t *testing.T) {
	l := NewLibrary()
	f1 := StaticFile("britney spears toxic.mp3", []byte("song1"))
	f2 := StaticFile("britney hits collection.zip", []byte("zip1"))
	f3 := StaticFile("linux kernel source.tar", []byte("tar1"))
	for _, f := range []*SharedFile{f1, f2, f3} {
		if _, err := l.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	got := l.Match("britney", 0)
	if len(got) != 2 {
		t.Fatalf("Match(britney) = %d files", len(got))
	}
	got = l.Match("britney toxic", 0)
	if len(got) != 1 || got[0] != f1 {
		t.Fatalf("AND semantics broken: %d files", len(got))
	}
	if l.Match("nonexistent", 0) != nil {
		t.Fatal("matched absent keyword")
	}
	if l.Match("", 0) != nil {
		t.Fatal("matched empty query")
	}
}

func TestLibraryMatchLimit(t *testing.T) {
	l := NewLibrary()
	for i := 0; i < 10; i++ {
		l.Add(StaticFile("common song.mp3", []byte{byte(i)}))
	}
	if got := l.Match("common", 3); len(got) != 3 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if got := l.Match("common", 0); len(got) != 10 {
		t.Fatalf("no-limit broken: %d", len(got))
	}
}

func TestLibraryMatchDeterministicOrder(t *testing.T) {
	l := NewLibrary()
	for i := 0; i < 5; i++ {
		l.Add(StaticFile("query hit file.exe", []byte{byte(i)}))
	}
	a := l.Match("query hit", 0)
	b := l.Match("query hit", 0)
	for i := range a {
		if a[i].Index != b[i].Index {
			t.Fatal("order not deterministic")
		}
		if i > 0 && a[i].Index < a[i-1].Index {
			t.Fatal("not sorted by index")
		}
	}
}

func TestLibraryRemove(t *testing.T) {
	l := NewLibrary()
	f := StaticFile("some file.exe", []byte("x"))
	idx, _ := l.Add(f)
	l.Remove(idx)
	if l.Len() != 0 || l.Get(idx) != nil {
		t.Fatal("remove failed")
	}
	if l.Match("some file", 0) != nil {
		t.Fatal("removed file still matches")
	}
	l.Remove(999) // no-op must not panic
}

func TestLibraryAddErrors(t *testing.T) {
	l := NewLibrary()
	if _, err := l.Add(nil); err == nil {
		t.Fatal("nil file accepted")
	}
	if _, err := l.Add(&SharedFile{Name: "x.exe"}); err == nil {
		t.Fatal("file with no content accepted")
	}
	if _, err := l.Add(StaticFile("", []byte("x"))); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestLibraryGet(t *testing.T) {
	l := NewLibrary()
	f := StaticFile("file one.exe", []byte("abc"))
	idx, _ := l.Add(f)
	got := l.Get(idx)
	if got == nil || got.Name != "file one.exe" || got.Size != 3 {
		t.Fatalf("Get = %+v", got)
	}
}

func TestStaticFileFields(t *testing.T) {
	f := StaticFile("a file.exe", []byte("hello"))
	if f.Size != 5 || !strings.HasPrefix(f.SHA1, "urn:sha1:") {
		t.Fatalf("StaticFile = %+v", f)
	}
	body, err := f.Open()
	if err != nil || string(body.Bytes) != "hello" {
		t.Fatalf("Open = %q, %v", body.Bytes, err)
	}
}

func TestAllKeywordsSorted(t *testing.T) {
	l := NewLibrary()
	l.Add(StaticFile("zebra apple.exe", []byte("1")))
	l.Add(StaticFile("mango apple.zip", []byte("2")))
	kws := l.AllKeywords()
	want := []string{"apple", "exe", "mango", "zebra", "zip"}
	if len(kws) != len(want) {
		t.Fatalf("AllKeywords = %v", kws)
	}
	for i := range want {
		if kws[i] != want[i] {
			t.Fatalf("AllKeywords = %v", kws)
		}
	}
}

func TestLibraryConcurrentAccess(t *testing.T) {
	l := NewLibrary()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				idx, _ := l.Add(StaticFile("shared query file.exe", []byte{byte(i), byte(j)}))
				l.Match("shared query", 5)
				l.Get(idx)
				if j%2 == 0 {
					l.Remove(idx)
				}
			}
		}(i)
	}
	wg.Wait()
}
