package results

import (
	"os/exec"
	"runtime/debug"
	"strings"
	"sync"
)

// BuildStamp returns the revision stamp of this process's records
// (Record.Git), in `git describe --always --dirty` form. A binary built
// with VCS information (go build in a checkout) takes it from
// runtime/debug.ReadBuildInfo and runs nothing; otherwise (go run, go
// test) the working tree's `git describe` runs once, at the first call,
// best effort — "" outside a repository or without git. The stamp is part
// of a record's run identity, outside Key() and CompareKey(): it tells
// two trajectory entries from different commits apart, so only real runs
// stamp it; tests and goldens leave it empty.
var BuildStamp = sync.OnceValue(func() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		if stamp := vcsStamp(info.Settings); stamp != "" {
			return stamp
		}
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
})

// vcsStamp formats the vcs.revision and vcs.modified build settings as
// `git describe --always --dirty` prints an untagged commit: the
// revision abbreviated to git's default seven digits, suffixed "-dirty"
// when the tree had local modifications. It returns "" when the build
// recorded no revision.
func vcsStamp(settings []debug.BuildSetting) string {
	var rev string
	dirty := false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 7 {
		rev = rev[:7]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
