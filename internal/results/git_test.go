package results

import (
	"runtime/debug"
	"testing"
)

func TestVCSStamp(t *testing.T) {
	const rev = "a4cf7cb0d7c61e5e1e2b9c0f3e8b3c1f00d1e2f3"
	for _, c := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{nil, ""},
		{[]debug.BuildSetting{{Key: "vcs", Value: "git"}, {Key: "vcs.modified", Value: "true"}}, ""},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "false"}}, "a4cf7cb"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: rev}}, "a4cf7cb-dirty"},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: "abc"}}, "abc"},
	} {
		if got := vcsStamp(c.settings); got != c.want {
			t.Errorf("vcsStamp(%v) = %q, want %q", c.settings, got, c.want)
		}
	}
}
