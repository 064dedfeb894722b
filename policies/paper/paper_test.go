package paper

import (
	"strings"
	"testing"
)

func TestWithout(t *testing.T) {
	got := Without(Local72, "notify")
	if strings.Contains(got, "rr_cond_notify") {
		t.Errorf("Without(Local72, notify) keeps a notify line:\n%s", got)
	}
	if n := strings.Count(got, "rr_cond_update_log"); n != 2 {
		t.Errorf("Without(Local72, notify) has %d update_log lines, want 2", n)
	}
	if removed := len(strings.Split(Local72, "\n")) - len(strings.Split(got, "\n")); removed != 2 {
		t.Errorf("Without(Local72, notify) removed %d lines, want 2", removed)
	}
	if got := Without(Local72, "block_ip"); got != Local72 {
		t.Error("Without of an absent condition changed the policy")
	}
}
