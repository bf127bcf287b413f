#include "wire/writer.h"

namespace dauth::wire {

// Out of line: inlined into callers with constant-size fields, the vector
// append trips GCC 12's -O3 -Wstringop-overflow false positives.
void Writer::raw(ByteView data) { append(buffer_, data); }

}  // namespace dauth::wire
