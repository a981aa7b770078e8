package obs

import "fmt"

// Level is a log severity.
type Level int

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// Logger is a minimal leveled logger the node layers share instead of
// ad-hoc `Logf func(...)` config fields. It adapts to any printf-shaped
// sink (log.Printf, testing.T.Logf). A nil *Logger is valid and silent, so
// callers log unconditionally.
type Logger struct {
	min    Level
	printf func(format string, args ...any)
}

// NewLogger returns a logger that forwards records at or above min to
// printf. A nil printf yields a silent logger.
func NewLogger(min Level, printf func(format string, args ...any)) *Logger {
	if printf == nil {
		return nil
	}
	return &Logger{min: min, printf: printf}
}

// Enabled reports whether records at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

func (l *Logger) emit(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.printf("[%s] %s", lv, fmt.Sprintf(format, args...))
}

// Debugf logs at debug level.
func (l *Logger) Debugf(format string, args ...any) { l.emit(LevelDebug, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.emit(LevelError, format, args...) }
