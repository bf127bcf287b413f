#include "wire/writer.h"

namespace dauth::wire {

// Out of line on purpose: inlined into every field's encode, it measured
// slower (GCC 12 Release on x86-64: a bundle's encode and decode took
// 294-365 ns against 242-268 ns out of line, docs/PERFORMANCE.md §22).
void Writer::raw(ByteView data) { append(buffer_, data); }

}  // namespace dauth::wire
