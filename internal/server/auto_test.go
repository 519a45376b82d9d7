package server

import (
	"strings"
	"testing"
	"time"

	"jisc/internal/adaptive"
	"jisc/internal/core"
	"jisc/internal/engine"
	"jisc/internal/plan"
	"jisc/internal/runtime"
)

func TestServerAutoCommand(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s)
	status := c.cmd(t, "AUTO STATUS")
	if !strings.HasPrefix(status, "AUTO query=default ") || !strings.Contains(status, "enabled=0") {
		t.Fatalf("initial AUTO STATUS = %q", status)
	}
	if resp := c.cmd(t, "AUTO ON"); resp != "OK" {
		t.Fatalf("AUTO ON -> %s", resp)
	}
	if resp := c.cmd(t, "AUTO ON"); resp != "OK" { // idempotent
		t.Fatalf("second AUTO ON -> %s", resp)
	}
	status = c.cmd(t, "AUTO STATUS")
	for _, want := range []string{"enabled=1", "proposals=", "migrations=", "rollbacks=", "last_migration_age_ms="} {
		if !strings.Contains(status, want) {
			t.Fatalf("AUTO STATUS %q missing %q", status, want)
		}
	}
	stats := c.cmd(t, "STATS")
	if got := statField(t, stats, "auto_enabled"); got != "1" {
		t.Fatalf("STATS auto_enabled = %s with the autopilot on", got)
	}
	if got := statField(t, stats, "last_migration_age_ms"); got != "0" {
		t.Fatalf("last_migration_age_ms = %s before any migration, want 0", got)
	}
	if resp := c.cmd(t, "AUTO OFF"); resp != "OK" {
		t.Fatalf("AUTO OFF -> %s", resp)
	}
	if got := statField(t, c.cmd(t, "STATS"), "auto_enabled"); got != "0" {
		t.Fatalf("STATS auto_enabled = %s after AUTO OFF", got)
	}
	if resp := c.cmd(t, "AUTO FLIP"); !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("AUTO FLIP -> %q, want an error", resp)
	}
	if resp := c.cmd(t, "AUTO STATUS nosuch"); !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("AUTO STATUS nosuch -> %q, want an error", resp)
	}
	// ON and OFF mutate autopilot state; on a non-durable server both
	// count as unlogged mutations, STATUS does not.
	if got := s.WALDisabledMutations(); got != 3 {
		t.Fatalf("WALDisabledMutations = %d after ON+ON+OFF, want 3", got)
	}
}

// TestServerAutoStartFlag covers cmd/jiscd's -auto path: the autopilot
// is live on the default query before the first connection.
func TestServerAutoStartFlag(t *testing.T) {
	s, err := New(Config{
		Pipeline: runtime.Config{Engine: engine.Config{
			Plan:       plan.MustLeftDeep(0, 1, 2),
			WindowSize: 100,
			Strategy:   core.New(),
		}},
		Adaptive:  adaptive.Config{Interval: time.Millisecond},
		AutoStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := dial(t, s)
	if got := statField(t, c.cmd(t, "STATS"), "auto_enabled"); got != "1" {
		t.Fatalf("auto_enabled = %s on an AutoStart server, want 1", got)
	}

	// AutoStart without a default query cannot work.
	if _, err := New(Config{
		Pipeline:  runtime.Config{Engine: engine.Config{Strategy: core.New()}},
		AutoStart: true,
	}); err == nil {
		t.Fatal("AutoStart accepted with no default query")
	}
}

// TestServerAutoSurvivesRestart: AUTO ON is a logged mutation — a
// durable server that crashes after acknowledging it must come back
// with the autopilot running, and after AUTO OFF it must stay off.
func TestServerAutoSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir)
	c := dial(t, s)
	if resp := c.cmd(t, "AUTO ON"); resp != "OK" {
		t.Fatalf("AUTO ON -> %s", resp)
	}
	if resp := c.cmd(t, "CREATE pairs 50 (0 1)"); resp != "OK" {
		t.Fatalf("CREATE -> %s", resp)
	}
	if resp := c.cmd(t, "AUTO ON pairs"); resp != "OK" {
		t.Fatalf("AUTO ON pairs -> %s", resp)
	}
	if resp := c.cmd(t, "AUTO OFF pairs"); resp != "OK" {
		t.Fatalf("AUTO OFF pairs -> %s", resp)
	}
	s.Close()

	s2 := startDurableServer(t, dir)
	c2 := dial(t, s2)
	if got := statField(t, c2.cmd(t, "STATS"), "auto_enabled"); got != "1" {
		t.Fatal("default query's autopilot did not survive the restart")
	}
	if got := statField(t, c2.cmd(t, "STATS pairs"), "auto_enabled"); got != "0" {
		t.Fatal("pairs' autopilot resurrected despite AUTO OFF")
	}
	// A dropped query takes its logged toggle with it.
	if resp := c2.cmd(t, "DROP default"); resp != "OK" {
		t.Fatalf("DROP default -> %s", resp)
	}
	s2.Close()

	s3 := startDurableServer(t, dir)
	defer s3.Close()
	c3 := dial(t, s3)
	if resp := c3.cmd(t, "AUTO STATUS pairs"); !strings.Contains(resp, "enabled=0") {
		t.Fatalf("AUTO STATUS pairs after restart = %q", resp)
	}
}

func TestTelemetryAutoSeries(t *testing.T) {
	s := newTestServer(t)
	if err := s.ServeTelemetry("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	if resp := c.cmd(t, "AUTO ON"); resp != "OK" {
		t.Fatalf("AUTO ON -> %s", resp)
	}
	m := scrape(t, s, "/metrics")
	for _, want := range []string{
		`jisc_auto_enabled{query="default"} 1`,
		`jisc_auto_proposals_total{query="default"}`,
		`jisc_auto_migrations_total{query="default"} 0`,
		`jisc_auto_rollbacks_total{query="default"} 0`,
		`jisc_auto_last_migration_seconds{query="default"} 0`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if resp := c.cmd(t, "AUTO OFF"); resp != "OK" {
		t.Fatalf("AUTO OFF -> %s", resp)
	}
	if !strings.Contains(scrape(t, s, "/metrics"), `jisc_auto_enabled{query="default"} 0`) {
		t.Error("jisc_auto_enabled did not drop to 0 after AUTO OFF")
	}
}

func TestClientParsesAutoStats(t *testing.T) {
	st, err := parseStats("STATS input=5 auto_enabled=1 auto_proposals=7 auto_migrations=2 auto_rollbacks=1 last_migration_age_ms=1500")
	if err != nil {
		t.Fatal(err)
	}
	if st.AutoEnabled != 1 || st.AutoProposals != 7 || st.AutoMigrations != 2 || st.AutoRollbacks != 1 || st.LastMigrationAgeMS != 1500 {
		t.Fatalf("parsed %+v", st)
	}
}
