package server

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
)

// commandLines flattens the command table: one name per row that
// dispatch can end on ("AUTO ON" for an action, "AUTO" for the verb's
// own fallback).
func commandLines() map[string]command {
	rows := map[string]command{}
	for _, cmd := range commands {
		rows[cmd.verb] = cmd
		for _, action := range cmd.actions {
			rows[cmd.verb+" "+action.verb] = action
		}
	}
	return rows
}

// TestCommandTableFlags holds the table against the two verb lists the
// command loop used to carry: what a drain fences and what counts as an
// unlogged mutation. The one intended difference is AUTO, which used to
// be fenced as a verb and is now fenced per action — STATUS is a read.
func TestCommandTableFlags(t *testing.T) {
	fenced := map[string]bool{"FEED": true, "FEEDB": true, "MIGRATE": true, "CREATE": true,
		"DROP": true, "CHECKPOINT": true, "AUTO ON": true, "AUTO OFF": true}
	counted := map[string]bool{"FEED": true, "FEEDB": true, "MIGRATE": true, "CREATE": true,
		"DROP": true, "AUTO ON": true, "AUTO OFF": true}
	rows := commandLines()
	for name, cmd := range rows {
		if cmd.fenced != fenced[name] || cmd.counted != counted[name] {
			t.Errorf("%s: fenced=%v counted=%v, want %v %v", name, cmd.fenced, cmd.counted, fenced[name], counted[name])
		}
		if cmd.run == nil {
			t.Errorf("%s: no handler", name)
		}
		if cmd.verb != strings.ToUpper(cmd.verb) {
			t.Errorf("%s: verbs are upper case in the table", name)
		}
	}
	for name := range fenced {
		if _, ok := rows[name]; !ok {
			t.Errorf("%s is not in the table", name)
		}
	}
	for _, word := range []string{"stats", "Stats", "STATS"} {
		if cmd := lookupCommand(commands, word); cmd == nil || cmd.verb != "STATS" {
			t.Errorf("lookup %q = %v", word, cmd)
		}
	}
	if lookupCommand(commands, "STAT") != nil || lookupCommand(commands, "") != nil {
		t.Error("lookup matched a verb it was not given")
	}
}

// TestFeedCoalescingIgnoresCase: the peek that folds buffered FEED
// lines into the running batch matches the verb the way dispatch does.
func TestFeedCoalescingIgnoresCase(t *testing.T) {
	s := newTestServer(t)
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	go io.Copy(io.Discard, far)
	c := &session{
		s:  s,
		lw: &lockedWriter{w: bufio.NewWriter(near), conn: near},
		br: bufio.NewReader(strings.NewReader("feed 1 7\nFeEd 2 7\nfeedb 0 1\nFEED 0 9\n")),
	}
	if _, err := c.br.Peek(1); err != nil { // fill the buffer: the peek only sees buffered lines
		t.Fatal(err)
	}
	if err := c.dispatch("fEEd 0 7"); err != nil {
		t.Fatal(err)
	}
	if c.lines != 3 || len(c.batch) != 3 {
		t.Fatalf("coalesced %d lines into a batch of %d, want 3 and 3 (the run ends at feedb)", c.lines, len(c.batch))
	}
	if next, _, _ := bufferedLine(c.br); next != "feedb 0 1" {
		t.Fatalf("next buffered line = %q", next)
	}
	if got := s.walDisabled.Load(); got != 3 {
		t.Fatalf("unlogged mutations = %d, want one per coalesced line", got)
	}
}
