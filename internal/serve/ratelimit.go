package serve

import (
	"math"
	"sync"
	"time"
)

// tokenLimiter rate-limits mutating requests per bearer token with one
// token bucket per distinct Authorization value (the raw token as sent,
// before authentication — a flood of bad-token requests is throttled
// the same as a flood of good ones, so the limiter also shields the
// constant-time auth compare). Each bucket holds burst = max(rps, 1)
// request slots and refills at rps per second; a request finding an
// empty bucket is rejected (HTTP 429 at the caller).
type tokenLimiter struct {
	mu      sync.Mutex
	rps     float64
	burst   float64
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// limiterMaxBuckets bounds the per-token map: past it, buckets idle for
// over a minute are swept on insert, so unauthenticated callers cycling
// random tokens can't grow the map without bound.
const limiterMaxBuckets = 4096

func newTokenLimiter(rps float64) *tokenLimiter {
	burst := rps
	if burst < 1 {
		burst = 1
	}
	return &tokenLimiter{rps: rps, burst: burst, buckets: make(map[string]*tokenBucket)}
}

// allow consumes one request slot from key's bucket at time now,
// reporting whether the request is within the rate.
func (l *tokenLimiter) allow(key string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= limiterMaxBuckets {
			for k, old := range l.buckets {
				if now.Sub(old.last) > time.Minute {
					delete(l.buckets, k)
				}
			}
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rps
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// retryAfterSec is the Retry-After a throttled caller gets: an empty
// bucket holds a whole request slot again within 1/rps seconds.
func (l *tokenLimiter) retryAfterSec() int {
	return max(int(math.Ceil(1/l.rps)), 1)
}
