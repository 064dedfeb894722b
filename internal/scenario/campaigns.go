package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// The pre-built campaign catalog. Each campaign is a self-contained
// deployment (policies, content, accounts) plus a phased attack
// narrative with turn-by-turn checkpoints; docs/SCENARIOS.md documents
// every one. All traffic is seeded, so a campaign run is reproducible
// end to end.

// accountSite is the document tree shared by the login-centric
// campaigns: the public pages of the workload package plus an
// authenticated account area.
func accountSite() map[string]string {
	root := workload.DocRoot()
	root["/account/profile.html"] = "<html>profile</html>"
	root["/account/vault.html"] = "<html>vault</html>"
	return root
}

// credentialStuffing: a small botnet sprays breached credentials
// across many accounts. The per-source failed-login threshold catches
// every source, locks it out at the firewall, escalates the threat
// level and notifies the operator — while legitimate users (including
// correct logins) ride through untouched.
func credentialStuffing() Campaign {
	const local = `
# Lockout: a source with too many failed logins is cut off at the
# firewall and reported.
neg_access_right apache *
pre_cond_threshold local counter=login_attempt key=client_ip max=6 window=10m
rr_cond_block_ip local on:failure/duration:30m
rr_cond_set_threat_level local on:failure/medium
rr_cond_notify local on:failure/sysadmin/info:credential-stuffing

# The account area requires authentication; failures are counted.
pos_access_right apache GET /account/*
pre_cond_accessid_USER apache *
rr_cond_count local on:failure/login_attempt

# Everything else is public.
pos_access_right apache *
`
	users := []string{"alice", "bob", "carol"}
	sources := workload.IPPool("198.51.100", 3)
	return Campaign{
		Name:  "credential-stuffing",
		Title: "Credential stuffing from a small botnet",
		Description: "Three sources spray breached credentials across the account base. " +
			"Each source trips the per-source failed-login threshold, is firewalled for 30m, " +
			"and the operator is notified; legitimate traffic and correct logins are unaffected.",
		Stack: gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": local},
			DocRoot:       accountSite(),
			Users:         map[string]string{"alice": "alice-pw", "bob": "bob-pw", "carol": "carol-pw"},
		},
		Phases: []Phase{
			{
				Name:    "baseline",
				Comment: "normal browsing plus one correct login",
				Traffic: func(seed int64) []workload.Request {
					reqs := workload.Legit(20, seed)
					reqs = append(reqs, workload.Relabel([]workload.Request{
						workload.Login("10.0.1.5", "/account/profile.html", "alice", "alice-pw"),
					}, "good-login")...)
					return reqs
				},
				Checkpoint: Checkpoint{
					Threat: "low",
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "good-login", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "stuffing",
				Comment: "3 sources x 12 wrong-password attempts, interleaved",
				Traffic: func(seed int64) []workload.Request {
					return workload.CredentialStuffing("/account/profile.html", users, sources, 12, seed)
				},
				Checkpoint: Checkpoint{
					Threat:         "medium",
					Blocked:        sources,
					MailboxAtLeast: 3,
					Classes: []ClassExpect{
						// 6 challenges per source before the threshold trips.
						{Class: "credential-stuffing", Status: 401, Min: 18},
						// The 7th attempt is policy-denied, the rest firewalled.
						{Class: "credential-stuffing", Status: 403, Min: 18},
					},
				},
			},
			{
				Name:    "aftermath",
				Comment: "attackers stay firewalled; the site works normally",
				Advance: time.Minute,
				Traffic: func(seed int64) []workload.Request {
					reqs := workload.Legit(15, seed)
					reqs = append(reqs, workload.Relabel([]workload.Request{
						workload.Login("10.0.1.5", "/account/profile.html", "alice", "alice-pw"),
					}, "good-login")...)
					for _, ip := range sources {
						reqs = append(reqs, workload.Relabel(
							[]workload.Request{workload.Login(ip, "/account/profile.html", "alice", "alice-pw")},
							"credential-stuffing")...)
					}
					return reqs
				},
				Checkpoint: Checkpoint{
					Threat:  "medium",
					Blocked: sources,
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "good-login", Status: 200, All: true},
						// Even the right password doesn't help a blocked source.
						{Class: "credential-stuffing", Status: 403, All: true},
					},
				},
			},
		},
	}
}

// lowAndSlow: a distributed brute force rotates one guess at a time
// through 12 sources with minutes between attempts, so no per-source
// threshold can ever trip. The aggregate detector — the same counter
// keyed by attacked path instead of source — catches it anyway.
func lowAndSlow() Campaign {
	const local = `
# The per-source lockout the attack is engineered to evade.
neg_access_right apache *
pre_cond_threshold local counter=failed_login key=client_ip max=6 window=10m
rr_cond_block_ip local on:failure/duration:30m

# Aggregate detector: failed logins against one object, summed over
# ALL sources. Trips on the campaign even though every source is quiet.
neg_access_right apache *
pre_cond_threshold local counter=failed_login key=object max=15 window=2h
rr_cond_set_threat_level local on:failure/high
rr_cond_notify local on:failure/sysadmin/info:distributed-brute-force

pos_access_right apache GET /account/*
pre_cond_accessid_USER apache *
rr_cond_count local on:failure/failed_login
rr_cond_count local on:failure/failed_login/key:object

pos_access_right apache *
`
	sources := workload.IPPool("198.51.100", 12)
	return Campaign{
		Name:  "low-and-slow",
		Title: "Distributed low-and-slow brute force",
		Description: "Twelve sources take turns guessing one account's password, two minutes " +
			"apart, keeping every per-source counter at 1. The aggregate per-object threshold " +
			"trips anyway, locks the attacked object down and escalates the threat level — " +
			"with zero sources firewalled (no collateral blocking).",
		Stack: gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": local},
			DocRoot:       accountSite(),
			Users:         map[string]string{"alice": "alice-pw"},
		},
		Phases: []Phase{
			{
				Name:    "recon",
				Comment: "normal traffic; the owner logs in",
				Traffic: func(seed int64) []workload.Request {
					reqs := workload.Legit(12, seed)
					reqs = append(reqs, workload.Relabel([]workload.Request{
						workload.Login("10.0.2.9", "/account/vault.html", "alice", "alice-pw"),
					}, "good-login")...)
					return reqs
				},
				Checkpoint: Checkpoint{
					Threat: "low",
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "good-login", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "slow-guessing",
				Comment: "12 sources x 3 guesses, one every 2 simulated minutes",
				Traffic: func(seed int64) []workload.Request {
					return workload.LowAndSlow("/account/vault.html", "alice", sources, 3, 2*time.Minute, seed)
				},
				Checkpoint: Checkpoint{
					Threat:         "high",
					NotBlocked:     sources,
					MailboxAtLeast: 1,
					Classes: []ClassExpect{
						// 15 challenged guesses before the aggregate trips...
						{Class: "low-and-slow", Status: 401, Min: 15},
						// ...then the attacked object is locked down.
						{Class: "low-and-slow", Status: 403, Min: 20},
					},
				},
			},
			{
				Name:    "lockdown-holds",
				Comment: "guessing continues into the lockdown; the rest of the site is fine",
				Traffic: func(seed int64) []workload.Request {
					guesses := workload.LowAndSlow("/account/vault.html", "alice", sources, 1, 2*time.Minute, seed)
					return append(guesses, workload.Legit(10, seed+1)...)
				},
				Checkpoint: Checkpoint{
					Threat:     "high",
					NotBlocked: sources,
					Classes: []ClassExpect{
						{Class: "low-and-slow", Status: 403, All: true},
						{Class: "", Status: 200, All: true},
					},
				},
			},
		},
	}
}

// scrapingBurst: one source sweeps the whole site far above human
// request rates. The pure-policy rate limit (count every request,
// deny over threshold) firewalls it; the browsing crowd never notices.
func scrapingBurst() Campaign {
	const local = `
neg_access_right apache *
pre_cond_threshold local counter=req_rate key=client_ip max=30 window=60s
rr_cond_block_ip local on:failure/duration:2m
rr_cond_notify local on:failure/sysadmin/info:scrape

pos_access_right apache *
rr_cond_count local on:any/req_rate
`
	const scraper = "203.0.113.50"
	return Campaign{
		Name:  "scraping-burst",
		Title: "Scraping burst against a browsing crowd",
		Description: "A scraper sweeps the document tree at 10 req/s while normal clients " +
			"browse. The per-client request-rate policy lets 30 requests through in its 60s " +
			"window, then firewalls the scraper for 2 minutes; the crowd is untouched.",
		Stack: gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": local},
			DocRoot:       workload.DocRoot(),
		},
		Phases: []Phase{
			{
				Name:    "browse",
				Comment: "a normal browsing crowd, one request per simulated second",
				Gap:     time.Second,
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(25, seed)
				},
				Checkpoint: Checkpoint{
					Classes: []ClassExpect{{Class: "", Status: 200, Min: 15}},
				},
			},
			{
				Name:    "scrape",
				Comment: "45 requests from one source, 100ms apart",
				Traffic: func(seed int64) []workload.Request {
					paths := []string{"/index.html", "/docs/guide.html", "/docs/api.html", "/news/2003-05.html"}
					burst := workload.ScrapeBurst(scraper, paths, 45, 100*time.Millisecond, seed)
					return workload.Interleave(seed+1, burst, workload.Legit(10, seed+2))
				},
				Checkpoint: Checkpoint{
					Blocked:        []string{scraper},
					MailboxAtLeast: 1,
					Classes: []ClassExpect{
						// 30 sweeps served before the window fills.
						{Class: "scrape", Status: 403, Min: 14},
						{Class: "", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "crowd-unaffected",
				Comment: "the block holds; browsing continues normally",
				Gap:     time.Second,
				Traffic: func(seed int64) []workload.Request {
					reqs := workload.Legit(15, seed)
					return append(reqs, workload.ScrapeBurst(scraper, []string{"/index.html"}, 3, time.Second, seed+1)...)
				},
				Checkpoint: Checkpoint{
					Blocked: []string{scraper},
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "scrape", Status: 403, All: true},
					},
				},
			},
		},
	}
}

// flashCrowd: a legitimate traffic spike arrives mixed with the
// paper's section-7 attack set. The signature policies must blacklist
// every attacker with zero false positives in the crowd — the
// discrimination test.
func flashCrowd() Campaign {
	const local = `
# Known CGI exploit and DoS signatures (paper section 7.2).
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_set_threat_level local on:failure/medium
rr_cond_notify local on:failure/sysadmin/info:cgiexploit

# Code-Red-style buffer overflow.
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_notify local on:failure/sysadmin/info:overflow

pos_access_right apache *
`
	attackers := []string{"192.0.2.1", "192.0.2.2", "192.0.2.3", "192.0.2.4", "192.0.2.5"}
	return Campaign{
		Name:  "flash-crowd",
		Title: "Flash crowd with attackers hiding inside",
		Description: "An 80-request legitimate spike from 40 fresh sources arrives interleaved " +
			"with the paper's five attack classes. Every attacker is denied and blacklisted; " +
			"every crowd request is served — the zero-false-positive assertion is checked " +
			"with All, so a single blocked bystander fails the campaign.",
		Stack: gaahttp.StackConfig{
			SystemPolicy:  paper.System72,
			LocalPolicies: map[string]string{"*": local},
			DocRoot:       workload.DocRoot(),
		},
		Phases: []Phase{
			{
				Name:    "quiet",
				Comment: "light baseline traffic",
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(10, seed)
				},
				Checkpoint: Checkpoint{
					Threat:  "low",
					Classes: []ClassExpect{{Class: "", Status: 200, All: true}},
				},
			},
			{
				Name:    "flash-crowd",
				Comment: "80 legit requests from 40 sources, 5 attacks interleaved",
				Traffic: func(seed int64) []workload.Request {
					return workload.Interleave(seed, workload.FlashCrowd(80, 40, seed+1), workload.AttackMix())
				},
				Checkpoint: Checkpoint{
					Threat:         "medium",
					Blacklisted:    attackers,
					MailboxAtLeast: 5,
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "phf", Status: 403, All: true},
						{Class: "test-cgi", Status: 403, All: true},
						{Class: "slash-flood", Status: 403, All: true},
						{Class: "nimda", Status: 403, All: true},
						{Class: "overflow", Status: 403, All: true},
					},
				},
			},
			{
				Name:    "crowd-continues",
				Comment: "attackers retry and hit the blacklist; the crowd browses on",
				Traffic: func(seed int64) []workload.Request {
					retries := workload.Relabel([]workload.Request{
						{Method: "GET", Target: "/index.html", ClientIP: attackers[0]},
						{Method: "GET", Target: "/docs/guide.html", ClientIP: attackers[3]},
					}, "blacklisted-retry")
					return workload.Interleave(seed, workload.FlashCrowd(30, 40, seed+1), retries)
				},
				Checkpoint: Checkpoint{
					Blacklisted: attackers,
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						// Innocent-looking requests, denied purely by identity.
						{Class: "blacklisted-retry", Status: 403, All: true},
					},
				},
			},
		},
	}
}

// threatLadder: the threat level climbs as attacks sharpen, and policy
// behavior changes with it — open docs start demanding authentication
// at medium, and the mandatory system policy locks the site at high.
func threatLadder() Campaign {
	const local = `
# A recon probe escalates to medium.
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *cmd.exe*
rr_cond_set_threat_level local on:failure/medium
rr_cond_notify local on:failure/sysadmin/info:probe

# An overflow attempt escalates to high.
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_set_threat_level local on:failure/high
rr_cond_notify local on:failure/sysadmin/info:overflow

# Above low threat the docs area requires authentication; otherwise it
# is open (the selector-skip makes the second entry reachable).
pos_access_right apache GET /docs/*
pre_cond_system_threat_level local >low
pre_cond_accessid_USER apache *
pos_access_right apache GET /docs/*

pos_access_right apache *
`
	// legitOffDocs is crowd traffic that stays out of /docs — at
	// elevated threat the docs area legitimately answers 401 to
	// anonymous readers, which is asserted separately via docs-anon.
	legitOffDocs := func(n int, seed int64) []workload.Request {
		out := make([]workload.Request, 0, n)
		for _, r := range workload.Legit(n*3, seed) {
			if strings.HasPrefix(r.Target, "/docs/") {
				continue
			}
			out = append(out, r)
			if len(out) == n {
				break
			}
		}
		return out
	}
	docsAnon := func(ip string) []workload.Request {
		return workload.Relabel([]workload.Request{
			{Method: "GET", Target: "/docs/guide.html", ClientIP: ip},
			{Method: "GET", Target: "/docs/api.html", ClientIP: ip},
		}, "docs-anon")
	}
	docsAuth := func(ip string) []workload.Request {
		return workload.Relabel([]workload.Request{
			workload.Login(ip, "/docs/guide.html", "alice", "alice-pw"),
		}, "docs-auth")
	}
	return Campaign{
		Name:  "threat-ladder",
		Title: "Threat-escalation ladder",
		Description: "A probe lifts the threat level to medium — the docs area silently starts " +
			"requiring authentication. An overflow attempt lifts it to high — the mandatory " +
			"system policy locks the whole site. The level is sticky: it never de-escalates " +
			"on its own, which the final phase asserts after two quiet simulated hours.",
		Stack: gaahttp.StackConfig{
			SystemPolicy:  paper.System71,
			LocalPolicies: map[string]string{"*": local},
			DocRoot:       workload.DocRoot(),
			Users:         map[string]string{"alice": "alice-pw"},
		},
		Phases: []Phase{
			{
				Name:    "calm",
				Comment: "docs are open to anonymous readers at low threat",
				Traffic: func(seed int64) []workload.Request {
					return append(workload.Legit(10, seed), docsAnon("10.0.3.3")...)
				},
				Checkpoint: Checkpoint{
					Threat: "low",
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "docs-anon", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "probe",
				Comment: "a phf scan raises threat to medium; docs now demand credentials",
				Traffic: func(seed int64) []workload.Request {
					reqs := []workload.Request{workload.PhfScan("192.0.2.66")}
					reqs = append(reqs, docsAnon("10.0.3.3")...)
					reqs = append(reqs, docsAuth("10.0.3.4")...)
					return append(reqs, legitOffDocs(8, seed)...)
				},
				Checkpoint: Checkpoint{
					Threat:         "medium",
					MailboxAtLeast: 1,
					Classes: []ClassExpect{
						{Class: "phf", Status: 403, All: true},
						{Class: "docs-anon", Status: 401, All: true},
						{Class: "docs-auth", Status: 200, All: true},
						{Class: "", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "overflow",
				Comment: "a buffer overflow raises threat to high; the site locks down",
				Traffic: func(seed int64) []workload.Request {
					reqs := []workload.Request{workload.Overflow("192.0.2.77", 1200)}
					return append(reqs, workload.Legit(8, seed)...)
				},
				Checkpoint: Checkpoint{
					Threat:         "high",
					MailboxAtLeast: 2,
					Classes: []ClassExpect{
						{Class: "overflow", Status: 403, All: true},
						// The mandatory system policy denies even legit traffic.
						{Class: "", Status: 403, All: true},
					},
				},
			},
			{
				Name:    "threat-sticky",
				Comment: "two quiet hours later the level has not decayed",
				Advance: 2 * time.Hour,
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(5, seed)
				},
				Checkpoint: Checkpoint{
					Threat:  "high",
					Classes: []ClassExpect{{Class: "", Status: 403, All: true}},
				},
			},
		},
	}
}

// recoveryAfterBlock: a legitimate user locks themselves out, the
// timed block and the sliding counter window both expire, and the
// system returns to normal service — adaptive response is reversible.
func recoveryAfterBlock() Campaign {
	const local = `
neg_access_right apache *
pre_cond_threshold local counter=failed_login key=client_ip max=3 window=5m
rr_cond_block_ip local on:failure/duration:90s
rr_cond_set_threat_level local on:failure/medium
rr_cond_notify local on:failure/sysadmin/info:lockout

pos_access_right apache GET /account/*
pre_cond_accessid_USER apache *
rr_cond_count local on:failure/failed_login

pos_access_right apache *
`
	const user = "10.0.7.7"
	forgot := func(n int) []workload.Request {
		out := make([]workload.Request, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, workload.Login(user, "/account/profile.html", "alice", fmt.Sprintf("typo-%d", i)))
		}
		return workload.Relabel(out, "forgot-password")
	}
	return Campaign{
		Name:  "recovery-after-block",
		Title: "Recovery after a timed block",
		Description: "A forgetful user fails four logins, trips the lockout and is firewalled " +
			"for 90 seconds. After the block and the counter window expire, the correct " +
			"password works again and service is fully restored — only the escalated threat " +
			"level remains, because de-escalation is an operator decision.",
		Stack: gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": local},
			DocRoot:       accountSite(),
			Users:         map[string]string{"alice": "alice-pw"},
		},
		Phases: []Phase{
			{
				Name:    "mistakes",
				Comment: "four wrong passwords: three challenges, then the lockout",
				Traffic: func(seed int64) []workload.Request {
					return forgot(4)
				},
				Checkpoint: Checkpoint{
					Threat:         "medium",
					Blocked:        []string{user},
					MailboxAtLeast: 1,
					Classes: []ClassExpect{
						{Class: "forgot-password", Status: 401, Min: 3},
						{Class: "forgot-password", Status: 403, Min: 1},
					},
				},
			},
			{
				Name:    "locked-out",
				Comment: "retries die at the firewall, before any policy evaluation",
				Traffic: func(seed int64) []workload.Request {
					return forgot(3)
				},
				Checkpoint: Checkpoint{
					Blocked: []string{user},
					Classes: []ClassExpect{{Class: "forgot-password", Status: 403, All: true}},
				},
			},
			{
				Name:    "recovery",
				Comment: "six minutes later the block and the counter window have expired",
				Advance: 6 * time.Minute,
				Traffic: func(seed int64) []workload.Request {
					return workload.Relabel([]workload.Request{
						workload.Login(user, "/account/profile.html", "alice", "alice-pw"),
					}, "recovered")
				},
				Checkpoint: Checkpoint{
					Threat:     "medium",
					NotBlocked: []string{user},
					Classes:    []ClassExpect{{Class: "recovered", Status: 200, All: true}},
				},
			},
			{
				Name:    "clean-slate",
				Comment: "normal service for everyone, threat level held for the operator",
				Traffic: func(seed int64) []workload.Request {
					reqs := workload.Legit(10, seed)
					return append(reqs, workload.Relabel([]workload.Request{
						workload.Login(user, "/account/vault.html", "alice", "alice-pw"),
					}, "recovered")...)
				},
				Checkpoint: Checkpoint{
					Threat: "medium",
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "recovered", Status: 200, All: true},
					},
				},
			},
		},
	}
}

// lockdownEnds: the section 7.1 lockdown ends on its own. One phf
// probe moves the threat level no further than the policy's own
// set_threat_level asks; probes from three sources, the correlator's
// HighAfter, lock the site. Every request during the lockdown is
// denied, so no grant and no renewing report arrives, and the level
// still steps down one level per quiet five minutes, on every node: a
// peer that only merged the raise is not pinned at high.
func lockdownEnds() Campaign {
	const system = `
eacl_mode narrow
neg_access_right * *
pre_cond_system_threat_level local =high
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`
	const local = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_set_threat_level local on:failure/medium
rr_cond_notify local on:failure/sysadmin/info:probe
pos_access_right apache *
`
	attackers := workload.IPPool("198.51.100", 3)
	// retry is the blacklisted first attacker asking for the home page.
	retry := func() workload.Request {
		return workload.Relabel([]workload.Request{
			{Method: "GET", Target: "/index.html", ClientIP: attackers[0]},
		}, "blacklisted-retry")[0]
	}
	return Campaign{
		Name:  "lockdown-ends",
		Title: "A lockdown ends on its own",
		Description: "One phf probe raises the threat level to medium, as the policy asks, and " +
			"no further. Probes from three sources within a minute lock the site (section 7.1). " +
			"Every request during the lockdown is denied, yet the level steps down to medium " +
			"five quiet minutes after the last probe and to low five minutes later, on every " +
			"node of a fleet.",
		Stack: gaahttp.StackConfig{
			SystemPolicy:     system,
			LocalPolicies:    map[string]string{"*": local},
			DocRoot:          workload.DocRoot(),
			SensitiveObjects: []string{"/cgi-bin/*"},
			// Runs the host-IDS correlator; the values are the demo
			// deployment's input bounds.
			LevelValues: map[ids.Level]map[string]string{
				ids.Low:    {"max_input": "1000"},
				ids.Medium: {"max_input": "300"},
				ids.High:   {"max_input": "100"},
			},
		},
		Phases: []Phase{
			{
				Name:    "calm",
				Comment: "the crowd browses at low threat",
				Gap:     2 * time.Second,
				Traffic: func(seed int64) []workload.Request { return workload.Legit(12, seed) },
				Checkpoint: Checkpoint{
					Threat:  "low",
					Classes: []ClassExpect{{Class: "", Status: 200, All: true}},
				},
			},
			{
				Name:    "one-probe",
				Comment: "one phf probe: medium, as the policy asks, and the crowd is still served",
				Traffic: func(seed int64) []workload.Request {
					return append([]workload.Request{workload.PhfScan(attackers[0])}, workload.Legit(5, seed)...)
				},
				Checkpoint: Checkpoint{
					Threat:            "medium",
					Blacklisted:       []string{attackers[0]},
					MailboxAtLeast:    1,
					TransitionsAtMost: 1,
					Classes: []ClassExpect{
						{Class: "phf", Status: 403, All: true},
						{Class: "", Status: 200, All: true},
					},
				},
			},
			{
				Name: "lockdown",
				Comment: "probes from three sources within a minute: the site locks down; " +
					"on a fleet one node sees all three and its peers merge the raise",
				Traffic: func(seed int64) []workload.Request {
					// Round-robin puts requests 0, 3 and 6 on the first node
					// of three, and 0, 2, 4 and 6 on the first of two.
					crowd := workload.Legit(3, seed)
					return []workload.Request{
						workload.PhfScan(attackers[0]), crowd[0],
						workload.PhfScan(attackers[1]), workload.PhfScan(attackers[1]),
						crowd[1], crowd[2],
						workload.PhfScan(attackers[2]),
					}
				},
				Checkpoint: Checkpoint{
					Threat:            "high",
					Blacklisted:       attackers,
					TransitionsAtMost: 2,
					Classes:           []ClassExpect{{Class: "phf", Status: 403, All: true}},
				},
			},
			{
				Name: "lockdown-holds",
				Comment: "over the next minutes every request is denied, the crowd's searches " +
					"included; their sensitive-object reports are too mild to renew the lockdown",
				Advance: time.Minute,
				Gap:     30 * time.Second,
				Traffic: func(seed int64) []workload.Request {
					searches := workload.Relabel([]workload.Request{
						{Method: "GET", Target: "/cgi-bin/search?q=eacl", ClientIP: "10.0.2.21"},
						{Method: "GET", Target: "/cgi-bin/search?q=apache", ClientIP: "10.0.2.22"},
						{Method: "GET", Target: "/cgi-bin/search?q=gaa+api", ClientIP: "10.0.2.23"},
					}, "crowd-search")
					return append(append(workload.Legit(4, seed), searches...), retry())
				},
				Checkpoint: Checkpoint{
					Threat:            "high",
					TransitionsAtMost: 2,
					Classes: []ClassExpect{
						{Class: "", Status: 403, All: true},
						{Class: "crowd-search", Status: 403, All: true},
						{Class: "blacklisted-retry", Status: 403, All: true},
					},
				},
			},
			{
				Name:    "steps-to-medium",
				Comment: "five quiet minutes after the last probe the level steps down to medium and the crowd is served",
				Advance: 2 * time.Minute,
				Traffic: func(seed int64) []workload.Request {
					return append(workload.Legit(6, seed), retry())
				},
				Checkpoint: Checkpoint{
					Threat:            "medium",
					TransitionsAtMost: 3,
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "blacklisted-retry", Status: 403, All: true},
					},
				},
			},
			{
				Name:    "ends",
				Comment: "five more: low again; the blacklist, not the lockdown, still stops the attacker",
				Advance: 5 * time.Minute,
				Traffic: func(seed int64) []workload.Request {
					return append(workload.Legit(6, seed), retry())
				},
				Checkpoint: Checkpoint{
					Threat:            "low",
					Blacklisted:       attackers,
					TransitionsAtMost: 4,
					Classes: []ClassExpect{
						{Class: "", Status: 200, All: true},
						{Class: "blacklisted-retry", Status: 403, All: true},
					},
				},
			},
		},
	}
}

// adaptivePolicy is the deliberately dumb deployment the adaptive
// campaigns run against: the admin tree is off limits and everything
// else is open. No counters, no thresholds, no signature rules —
// catching the attacker is entirely the adaptive scorer's job.
const adaptivePolicy = `
neg_access_right apache GET /admin/*
pos_access_right apache *
`

// adaptiveScan emits n probe requests against the denied admin tree
// from one source, 50ms apart — fast, high-severity (the phf pattern
// trips the signature DB), and all policy-denied.
func adaptiveScan(ip, class string, n int) []workload.Request {
	out := make([]workload.Request, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, workload.Request{
			Method:   "GET",
			Target:   fmt.Sprintf("/admin/phf-probe-%d?cmd=%%3Bcat%%20%%2Fetc%%2Fpasswd", i),
			ClientIP: ip,
			Attack:   class,
			Delay:    50 * time.Millisecond,
		})
	}
	return out
}

// adaptiveRamp: a source drifts from normal browsing into a scan of a
// denied area. No threshold policy covers this traffic — the adaptive
// engine learns the site's baseline, scores the drifting source and
// firewalls it per-source while the global threat level never leaves
// low. Detection without a signature or a hand-tuned counter.
func adaptiveRamp() Campaign {
	acfg := adaptive.Defaults()
	acfg.HalfLife = 10 * time.Second
	acfg.MinSamples = 5
	// Per-source enforcement must lead global escalation: the block
	// fires while the fleet-level signal is still below the medium
	// raise threshold.
	acfg.BlockScore = 1.1
	const attacker = "203.0.113.99"
	return Campaign{
		Name:  "adaptive-ramp",
		Title: "Drifting source caught by the adaptive scorer",
		Description: "A source browses normally, then ramps into a scan of the denied admin " +
			"tree. No threshold or signature policy matches it; the adaptive per-source score " +
			"crosses the block floor within a handful of probes and the source is firewalled — " +
			"while the global threat level stays low throughout (surgical, not site-wide, " +
			"response).",
		Stack: gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": adaptivePolicy},
			DocRoot:       workload.DocRoot(),
			Adaptive:      &acfg,
		},
		Phases: []Phase{
			{
				Name:    "baseline",
				Comment: "a browsing crowd trains the per-resource profiles",
				Gap:     2 * time.Second,
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(30, seed)
				},
				Checkpoint: Checkpoint{
					Threat:     "low",
					NotBlocked: []string{attacker},
					Classes:    []ClassExpect{{Class: "", Status: 200, All: true}},
				},
			},
			{
				Name:    "drift",
				Comment: "the future attacker browses like anyone else",
				Gap:     2 * time.Second,
				Traffic: func(seed int64) []workload.Request {
					drifting := workload.Relabel(workload.LegitFrom(attacker, 6, seed), "drifting-source")
					return workload.Interleave(seed+1, drifting, workload.Legit(10, seed+2))
				},
				Checkpoint: Checkpoint{
					Threat:     "low",
					NotBlocked: []string{attacker},
					Classes: []ClassExpect{
						{Class: "drifting-source", Status: 200, All: true},
						{Class: "", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "scan",
				Comment: "the source turns: 30 admin probes at 20/s, crowd still browsing",
				Traffic: func(seed int64) []workload.Request {
					return workload.Interleave(seed,
						adaptiveScan(attacker, "adaptive-scan", 30),
						workload.Legit(8, seed+1))
				},
				Checkpoint: Checkpoint{
					// The tentpole assertion: per-source block earned
					// while the global level never moved.
					Threat:  "low",
					Blocked: []string{attacker},
					Classes: []ClassExpect{
						{Class: "adaptive-scan", Status: 403, All: true},
						{Class: "", Status: 200, All: true},
					},
				},
			},
			{
				Name:    "aftermath",
				Comment: "the block holds; innocent-looking retries die at the firewall",
				Advance: time.Minute,
				Traffic: func(seed int64) []workload.Request {
					retries := workload.Relabel(workload.LegitFrom(attacker, 3, seed), "blocked-retry")
					return workload.Interleave(seed+1, retries, workload.Legit(10, seed+2))
				},
				Checkpoint: Checkpoint{
					Threat:  "low",
					Blocked: []string{attacker},
					Classes: []ClassExpect{
						{Class: "blocked-retry", Status: 403, All: true},
						{Class: "", Status: 200, All: true},
					},
				},
			},
		},
	}
}

// adaptiveFlap: oscillating attack load must not flap the threat
// level. Bursts raise it once; the level's hold pins it through the
// quiet valleys and the second burst renews it, and only a long
// sustained calm lowers it again — exactly two transitions across four
// swings.
func adaptiveFlap() Campaign {
	acfg := adaptive.Defaults()
	acfg.HalfLife = 10 * time.Second
	acfg.MinSamples = 5
	// This drill exercises the low<->medium hysteresis boundary only:
	// per-source blocking and the high tier are pushed out of reach so
	// every observed transition is the global signal's doing.
	acfg.BlockScore = 100
	acfg.HighRaise = 100
	return Campaign{
		Name:  "adaptive-flap",
		Title: "Oscillating load cannot flap the threat level",
		Description: "Attack bursts alternate with quiet valleys. The first burst raises the " +
			"level to medium; the valleys drop the signal below the lower threshold but the " +
			"level's hold pins it, so the second burst causes no second raise. After a " +
			"15-minute calm the level steps back down — two transitions total, asserted with " +
			"a transition-count cap in every phase.",
		Stack: gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": adaptivePolicy},
			DocRoot:       workload.DocRoot(),
			Adaptive:      &acfg,
		},
		Phases: []Phase{
			{
				Name:    "baseline",
				Comment: "normal browsing; the level is low and has never moved",
				Gap:     2 * time.Second,
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(20, seed)
				},
				Checkpoint: Checkpoint{
					Threat:  "low",
					Classes: []ClassExpect{{Class: "", Status: 200, All: true}},
				},
			},
			{
				Name:    "burst",
				Comment: "a probe burst lifts the signal past the raise threshold",
				Traffic: func(seed int64) []workload.Request {
					return adaptiveScan("198.51.100.61", "flap-burst", 30)
				},
				Checkpoint: Checkpoint{
					Threat:            "medium",
					TransitionsAtMost: 1,
					Classes:           []ClassExpect{{Class: "flap-burst", Status: 403, All: true}},
				},
			},
			{
				Name:    "valley",
				Comment: "two quiet minutes: the signal collapses, the dwell pins the level",
				Advance: 2 * time.Minute,
				Gap:     2 * time.Second,
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(15, seed)
				},
				Checkpoint: Checkpoint{
					// The hysteresis assertion: signal is below the
					// lower threshold, yet no transition happened.
					Threat:            "medium",
					TransitionsAtMost: 1,
					Classes:           []ClassExpect{{Class: "", Status: 200, All: true}},
				},
			},
			{
				Name:    "burst-again",
				Comment: "a second burst from another source: still exactly one transition",
				Traffic: func(seed int64) []workload.Request {
					return adaptiveScan("198.51.100.62", "flap-burst", 30)
				},
				Checkpoint: Checkpoint{
					Threat:            "medium",
					TransitionsAtMost: 1,
					Classes:           []ClassExpect{{Class: "flap-burst", Status: 403, All: true}},
				},
			},
			{
				Name:    "calm",
				Comment: "fifteen quiet minutes outlast the dwell; the level steps down once",
				Advance: 15 * time.Minute,
				Gap:     2 * time.Second,
				Traffic: func(seed int64) []workload.Request {
					return workload.Legit(15, seed)
				},
				Checkpoint: Checkpoint{
					Threat:            "low",
					TransitionsAtMost: 2,
					Classes:           []ClassExpect{{Class: "", Status: 200, All: true}},
				},
			},
		},
	}
}

// All returns the campaign catalog sorted by name.
func All() []Campaign {
	out := []Campaign{
		credentialStuffing(),
		lowAndSlow(),
		scrapingBurst(),
		flashCrowd(),
		threatLadder(),
		recoveryAfterBlock(),
		lockdownEnds(),
		adaptiveRamp(),
		adaptiveFlap(),
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the named campaign.
func Find(name string) (Campaign, error) {
	for _, c := range All() {
		if c.Name == name {
			return c, nil
		}
	}
	return Campaign{}, fmt.Errorf("unknown campaign %q (try -list)", name)
}
