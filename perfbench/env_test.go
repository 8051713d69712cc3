package main

import "testing"

func TestRefusesWALOnTmpfs(t *testing.T) {
	env, err := probeEnvironment("/dev/shm", true)
	if env.WALFS != "tmpfs" {
		t.Skipf("/dev/shm is %q here, not tmpfs", env.WALFS)
	}
	if err == nil {
		t.Fatal("the layer replay's scratch log on tmpfs was accepted")
	}
	if env.WALFlushUS != walFlushWindow.Microseconds() {
		t.Errorf("flush window recorded as %d us, want %d", env.WALFlushUS, walFlushWindow.Microseconds())
	}
	// An untraced run keeps no log, so its directory does not matter.
	env, err = probeEnvironment("/dev/shm", false)
	if err != nil {
		t.Errorf("an untraced run must not care where its scratch directory is: %v", err)
	}
	if env.WALFS != "none" || env.WALFlushUS != 0 {
		t.Errorf("an untraced run recorded WAL settings %q, %d us", env.WALFS, env.WALFlushUS)
	}
}
