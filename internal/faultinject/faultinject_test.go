package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A nil injector must be inert: the disabled production path.
func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if d := in.Eval(StoreAppendFsync); d.Fire {
			t.Fatal("nil injector fired")
		}
	}
	if h, f := in.Counts(StoreAppendFsync); h != 0 || f != 0 {
		t.Fatalf("nil injector counts = %d/%d", h, f)
	}
	if s := in.String(); s != "faultinject: disabled" {
		t.Fatalf("nil String() = %q", s)
	}
}

// Unarmed points never fire even on an armed injector.
func TestUnarmedPointNeverFires(t *testing.T) {
	in := New(1).Arm(TransportReset, Rule{Prob: 1})
	for i := 0; i < 50; i++ {
		if d := in.Eval(StoreAppendWrite); d.Fire {
			t.Fatal("unarmed point fired")
		}
	}
}

// The same seed must reproduce the exact fire sequence; a different seed
// should (at p=0.5 over 200 hits, overwhelmingly) differ.
func TestDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(seed).Arm(WorkerCrash, Rule{Prob: 0.5})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.Eval(WorkerCrash).Fire
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-hit sequences")
	}
}

// A point's sequence must not depend on traffic at other points.
func TestPointStreamsIndependent(t *testing.T) {
	seq := func(interleave bool) []bool {
		in := New(7).
			Arm(WorkerCrash, Rule{Prob: 0.5}).
			Arm(TransportReset, Rule{Prob: 0.5})
		out := make([]bool, 100)
		for i := range out {
			if interleave {
				in.Eval(TransportReset)
			}
			out[i] = in.Eval(WorkerCrash).Fire
		}
		return out
	}
	a, b := seq(false), seq(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker.crash stream perturbed by transport.reset traffic at hit %d", i)
		}
	}
}

func TestScheduleRule(t *testing.T) {
	in := New(0).Arm(StoreAppendWrite, Rule{Hits: []int{1, 3}})
	want := []bool{true, false, true, false, false}
	for i, w := range want {
		if got := in.Eval(StoreAppendWrite).Fire; got != w {
			t.Fatalf("hit %d: fire = %v, want %v", i+1, got, w)
		}
	}
	if h, f := in.Counts(StoreAppendWrite); h != 5 || f != 2 {
		t.Fatalf("counts = %d/%d, want 5/2", h, f)
	}
}

func TestLimitCapsFires(t *testing.T) {
	in := New(0).Arm(WorkerCrash, Rule{Prob: 1, Limit: 3})
	fires := 0
	for i := 0; i < 10; i++ {
		if in.Eval(WorkerCrash).Fire {
			fires++
		}
	}
	if fires != 3 {
		t.Fatalf("fires = %d, want 3 (Limit)", fires)
	}
}

func TestInjectedErrorIdentity(t *testing.T) {
	in := New(0).Arm(StoreAppendFsync, Rule{Prob: 1})
	d := in.Eval(StoreAppendFsync)
	if !d.Fire {
		t.Fatal("p=1 did not fire")
	}
	if !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("default error %v does not wrap ErrInjected", d.Err)
	}
	if !strings.Contains(d.Err.Error(), string(StoreAppendFsync)) {
		t.Fatalf("default error %q does not name the point", d.Err)
	}
	custom := errors.New("boom")
	in.Arm(StoreAppendFsync, Rule{Prob: 1, Err: custom})
	if d := in.Eval(StoreAppendFsync); d.Err != custom {
		t.Fatalf("custom error not surfaced: %v", d.Err)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("store.append.fsync=0.25,worker.slow=1@50ms,store.append.write=#2|4", 9)
	if err != nil {
		t.Fatal(err)
	}
	// Probability rule present and live.
	fires := 0
	for i := 0; i < 400; i++ {
		if in.Eval(StoreAppendFsync).Fire {
			fires++
		}
	}
	if fires < 50 || fires > 150 {
		t.Fatalf("p=0.25 over 400 hits fired %d times", fires)
	}
	// Delay attached.
	if d := in.Eval(WorkerSlow); !d.Fire || d.Delay != 50*time.Millisecond {
		t.Fatalf("worker.slow decision = %+v", d)
	}
	// Schedule rule.
	want := []bool{false, true, false, true, false}
	for i, w := range want {
		if got := in.Eval(StoreAppendWrite).Fire; got != w {
			t.Fatalf("schedule hit %d: %v, want %v", i+1, got, w)
		}
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	if in, err := ParseSpec("", 0); err != nil || in != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", in, err)
	}
	if in, err := ParseSpec("  ", 0); err != nil || in != nil {
		t.Fatalf("blank spec = (%v, %v), want (nil, nil)", in, err)
	}
	for _, tc := range []struct{ spec, want string }{
		{"noequals", ""}, {"=0.5", ""}, {"point=", ""},
		{"point=1.5", ""}, {"point=-0.1", ""}, {"point=abc", ""},
		{"point=NaN", "probability"}, {"point=nan", "probability"},
		{"point=#0", ""}, {"point=#x", ""}, {"point=0.5@nope", ""},
		{"point=0.5@-1s", "negative delay -1s"},
	} {
		_, err := ParseSpec(tc.spec, 0)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseSpecSameSeedSameSchedule(t *testing.T) {
	seq := func() []bool {
		in, err := ParseSpec("transport.reset=0.5", 77)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 100)
		for i := range out {
			out[i] = in.Eval(TransportReset).Fire
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ParseSpec schedules diverged at hit %d", i)
		}
	}
}

func TestTransportPassThrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "hello")
	}))
	defer srv.Close()
	c := &http.Client{Transport: &Transport{}}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "hello" {
		t.Fatalf("pass-through got %d %q", resp.StatusCode, body)
	}
}

func TestTransportReset(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request reached server despite injected reset")
	}))
	defer srv.Close()
	in := New(0).Arm(TransportReset, Rule{Prob: 1})
	c := &http.Client{Transport: &Transport{Inject: in}}
	_, err := c.Get(srv.URL)
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestTransport5xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "real")
	}))
	defer srv.Close()
	in := New(0).Arm(Transport5xx, Rule{Hits: []int{1}})
	c := &http.Client{Transport: &Transport{Inject: in}}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "injected") {
		t.Fatalf("503 body = %q", body)
	}
	// Second request passes through untouched.
	resp, err = c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "real" {
		t.Fatalf("second request got %d %q", resp.StatusCode, body)
	}
}

func TestTransportTruncate(t *testing.T) {
	long := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, long)
	}))
	defer srv.Close()
	in := New(0).Arm(TransportTruncate, Rule{Prob: 1})
	c := &http.Client{Transport: &Transport{Inject: in}}
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want injected", err)
	}
	if len(body) == 0 || len(body) >= len(long) {
		t.Fatalf("read %d bytes before truncation, want partial prefix", len(body))
	}
}

func TestTransportLatencyHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	in := New(0).Arm(TransportLatency, Rule{Prob: 1, Delay: 5 * time.Second})
	c := &http.Client{Transport: &Transport{Inject: in}, Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := c.Get(srv.URL)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("latency injection ignored context cancel (took %v)", el)
	}
}
