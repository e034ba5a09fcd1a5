package lint_test

import (
	"strings"
	"testing"
	"unicode"

	"github.com/flare-sim/flare/internal/lint"
)

// FuzzDirective fuzzes the directive grammar shared by the runner, the
// stale-waiver audit, and the suppression filter. Invariants:
//
//   - ParseDirective never panics, whatever bytes arrive;
//   - an allow-prefixed comment is always an allow, and a bare
//     //flare:allow (no reason, or reason not separated by a space) is
//     always malformed and never yields a reason;
//   - any other //flare: comment is an unknown directive, always
//     malformed; a comment outside the //flare: namespace is no
//     directive and never malformed;
//   - a malformed or non-allow parse never returns reason text;
//   - well-formed reasons survive a FormatAllow round-trip verbatim.
func FuzzDirective(f *testing.F) {
	seeds := []string{
		"//flare:allow fixture: keys are sorted on the next line",
		"//flare:allow",
		"//flare:allow ",
		"//flare:allow\tno leading space",
		"//flare:allowx not a directive",
		"//flare:hotpath",
		"//flare:hotpath with a trailing note",
		"// ordinary comment",
		"/* block comment */",
		"",
		"//flare:allow reason with // nested markers /* and */ inside",
		"//flare:",
		"// flare:allow with a space is an ordinary comment",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		kind, reason, malformed := lint.ParseDirective(text)

		if kind != lint.DirectiveAllow || malformed {
			if reason != "" {
				t.Fatalf("ParseDirective(%q) = kind %v, malformed %v, but leaked reason %q", text, kind, malformed, reason)
			}
		}
		switch {
		case strings.HasPrefix(text, "//flare:allow"):
			if kind != lint.DirectiveAllow {
				t.Fatalf("ParseDirective(%q) did not classify an allow-prefixed comment (got kind %v)", text, kind)
			}
		case strings.HasPrefix(text, "//flare:"):
			if kind != lint.DirectiveUnknown || !malformed {
				t.Fatalf("ParseDirective(%q) = kind %v, malformed %v: want an unknown, malformed directive", text, kind, malformed)
			}
		default:
			if kind != lint.DirectiveNone || malformed {
				t.Fatalf("ParseDirective(%q) = kind %v, malformed %v: want no directive", text, kind, malformed)
			}
		}
		if kind == lint.DirectiveAllow && !malformed {
			if reason == "" {
				t.Fatalf("ParseDirective(%q) = well-formed allow with empty reason", text)
			}
			if strings.TrimSpace(reason) != reason {
				t.Fatalf("ParseDirective(%q) returned untrimmed reason %q", text, reason)
			}
		}
		if text == "//flare:allow" || text == "//flare:allow " || text == "//flare:allow\t" {
			if !malformed {
				t.Fatalf("ParseDirective(%q): bare allow must be malformed", text)
			}
		}

		// Round-trip: any trimmed, newline-free, non-empty reason must
		// come back verbatim through FormatAllow.
		rt := strings.TrimFunc(text, unicode.IsSpace)
		if rt != "" && !strings.ContainsAny(rt, "\n\r") {
			kind2, reason2, malformed2 := lint.ParseDirective(lint.FormatAllow(rt))
			if kind2 != lint.DirectiveAllow || malformed2 || reason2 != rt {
				t.Fatalf("round-trip failed for reason %q: kind %v, malformed %v, reason %q", rt, kind2, malformed2, reason2)
			}
		}
	})
}
