//! The Windows API-call vocabulary.
//!
//! The paper's embedding table holds 2,224 parameters at embedding size 8,
//! fixing the vocabulary at `M = 278` distinct API calls (§IV). This module
//! defines those 278 calls — real Win32/Nt API names spanning the behaviour
//! space both ransomware and benign software exercise — grouped into
//! categories the trace generators compose from.

use std::collections::HashMap;

/// Behavioural category of an API call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiCategory {
    /// Reading file contents and positions.
    FileRead,
    /// Writing, flushing, renaming file contents.
    FileWrite,
    /// Opening/creating/closing file and mapping handles.
    FileOpen,
    /// Directory and volume enumeration.
    FileEnum,
    /// File attributes, deletion, temp paths.
    FileMeta,
    /// Registry access.
    Registry,
    /// CryptoAPI / CNG — the heart of an encryption loop.
    Crypto,
    /// Process creation and inspection.
    Process,
    /// Thread management and injection primitives.
    Thread,
    /// Virtual memory and heaps.
    Memory,
    /// Winsock networking.
    Network,
    /// WinINet/WinHTTP/DNS — C2-style communication.
    Internet,
    /// SMB shares and network neighbourhood — propagation surface.
    Share,
    /// Windows services — persistence surface.
    Service,
    /// Windows and message-loop GUI calls.
    Gui,
    /// Synchronization objects.
    Sync,
    /// Time, system information, anti-analysis probes.
    SystemInfo,
    /// Dynamic library loading.
    Library,
    /// COM and shell helpers.
    ComShell,
    /// Clipboard and input state.
    Clipboard,
    /// Environment, paths, error handling, string conversion.
    Environment,
    /// Device control and shutdown.
    System,
}

/// One vocabulary entry: an API call name and its category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApiCall {
    /// The canonical API name (e.g. `"CryptEncrypt"`).
    pub name: &'static str,
    /// Behavioural category.
    pub category: ApiCategory,
}

macro_rules! calls {
    ($cat:ident: $($name:literal),+ $(,)?) => {
        &[$(ApiCall { name: $name, category: ApiCategory::$cat }),+]
    };
}

/// The full 278-call table, category by category.
const TABLE: &[&[ApiCall]] = &[
    calls!(FileRead:
        "NtReadFile", "ReadFile", "ReadFileEx", "ReadFileScatter",
        "NtQueryInformationFile", "GetFileSize", "GetFileSizeEx",
        "SetFilePointer", "SetFilePointerEx", "GetFileType",
    ),
    calls!(FileWrite:
        "NtWriteFile", "WriteFile", "WriteFileEx", "WriteFileGather",
        "FlushFileBuffers", "NtFlushBuffersFile", "SetEndOfFile",
        "NtSetInformationFile", "MoveFileW", "MoveFileExW", "ReplaceFileW",
        "CopyFileW",
    ),
    calls!(FileOpen:
        "NtCreateFile", "NtOpenFile", "CreateFileW", "CreateFileA",
        "NtClose", "CloseHandle", "CreateFileMappingW", "MapViewOfFile",
        "UnmapViewOfFile", "DuplicateHandle", "CreateDirectoryW",
        "RemoveDirectoryW",
    ),
    calls!(FileEnum:
        "FindFirstFileW", "FindNextFileW", "FindClose",
        "NtQueryDirectoryFile", "GetLogicalDrives", "GetDriveTypeW",
        "GetVolumeInformationW", "GetDiskFreeSpaceExW", "SearchPathW",
        "GetFullPathNameW",
    ),
    calls!(FileMeta:
        "GetFileAttributesW", "SetFileAttributesW", "GetFileAttributesExW",
        "DeleteFileW", "NtDeleteFile", "GetFileInformationByHandle",
        "GetFileTime", "SetFileTime", "GetTempPathW", "GetTempFileNameW",
    ),
    calls!(Registry:
        "RegOpenKeyExW", "RegOpenKeyExA", "RegCreateKeyExW",
        "RegSetValueExW", "RegSetValueExA", "RegQueryValueExW",
        "RegQueryValueExA", "RegDeleteValueW", "RegDeleteKeyW",
        "RegEnumKeyExW", "RegEnumValueW", "RegCloseKey", "RegFlushKey",
        "RegQueryInfoKeyW", "NtOpenKey", "NtSetValueKey",
    ),
    calls!(Crypto:
        "CryptAcquireContextW", "CryptAcquireContextA",
        "CryptReleaseContext", "CryptGenKey", "CryptDeriveKey",
        "CryptDestroyKey", "CryptEncrypt", "CryptDecrypt", "CryptGenRandom",
        "CryptExportKey", "CryptImportKey", "CryptHashData",
        "CryptCreateHash", "CryptDestroyHash", "BCryptOpenAlgorithmProvider",
        "BCryptGenRandom", "BCryptEncrypt", "BCryptCloseAlgorithmProvider",
    ),
    calls!(Process:
        "CreateProcessW", "CreateProcessA", "CreateProcessInternalW",
        "OpenProcess", "TerminateProcess", "ExitProcess",
        "GetCurrentProcess", "GetCurrentProcessId",
        "NtQuerySystemInformation", "CreateToolhelp32Snapshot",
        "Process32FirstW", "Process32NextW", "Module32FirstW",
        "Module32NextW", "OpenProcessToken", "AdjustTokenPrivileges",
        "LookupPrivilegeValueW", "ShellExecuteExW",
    ),
    calls!(Thread:
        "CreateThread", "CreateRemoteThread", "OpenThread", "ResumeThread",
        "SuspendThread", "TerminateThread", "GetCurrentThreadId",
        "NtCreateThreadEx", "QueueUserAPC", "SetThreadContext",
    ),
    calls!(Memory:
        "VirtualAlloc", "VirtualAllocEx", "VirtualFree", "VirtualProtect",
        "VirtualProtectEx", "VirtualQuery", "WriteProcessMemory",
        "ReadProcessMemory", "HeapAlloc", "HeapFree", "HeapCreate",
        "GlobalAlloc",
    ),
    calls!(Network:
        "WSAStartup", "WSACleanup", "socket", "connect", "bind", "listen",
        "accept", "send", "recv", "sendto", "recvfrom", "closesocket",
        "gethostbyname", "getaddrinfo", "select", "ioctlsocket",
        "WSASocketW", "WSAConnect", "WSASend", "WSARecv",
    ),
    calls!(Internet:
        "InternetOpenW", "InternetOpenUrlW", "InternetConnectW",
        "InternetReadFile", "InternetWriteFile", "InternetCloseHandle",
        "HttpOpenRequestW", "HttpSendRequestW", "HttpQueryInfoW",
        "InternetCrackUrlW", "URLDownloadToFileW", "DnsQuery_W",
        "InternetSetOptionW", "WinHttpOpen",
    ),
    calls!(Share:
        "NetShareEnum", "NetServerEnum", "NetUserEnum", "WNetOpenEnumW",
        "WNetEnumResourceW", "WNetCloseEnum", "WNetAddConnection2W",
        "WNetCancelConnection2W", "NetWkstaGetInfo", "NetRemoteTOD",
    ),
    calls!(Service:
        "OpenSCManagerW", "OpenServiceW", "CreateServiceW", "StartServiceW",
        "ControlService", "DeleteService", "CloseServiceHandle",
        "QueryServiceStatusEx", "ChangeServiceConfigW",
        "EnumServicesStatusExW",
    ),
    calls!(Gui:
        "CreateWindowExW", "DestroyWindow", "ShowWindow", "UpdateWindow",
        "GetMessageW", "PeekMessageW", "DispatchMessageW",
        "TranslateMessage", "DefWindowProcW", "SendMessageW",
        "PostMessageW", "MessageBoxW", "SetWindowTextW", "GetDC",
        "ReleaseDC", "BitBlt", "InvalidateRect", "RegisterClassExW",
    ),
    calls!(Sync:
        "CreateMutexW", "OpenMutexW", "ReleaseMutex", "CreateEventW",
        "SetEvent", "WaitForSingleObject", "WaitForMultipleObjects",
        "CreateSemaphoreW", "EnterCriticalSection", "LeaveCriticalSection",
    ),
    calls!(SystemInfo:
        "GetSystemTimeAsFileTime", "GetSystemTime", "GetLocalTime",
        "QueryPerformanceCounter", "QueryPerformanceFrequency",
        "GetTickCount", "GetTickCount64", "Sleep", "SleepEx",
        "GetSystemInfo", "GetNativeSystemInfo", "GetComputerNameW",
        "GetUserNameW", "GetVersionExW", "GlobalMemoryStatusEx",
        "IsDebuggerPresent",
    ),
    calls!(Library:
        "LoadLibraryW", "LoadLibraryA", "LoadLibraryExW", "FreeLibrary",
        "GetProcAddress", "GetModuleHandleW", "GetModuleHandleA",
        "GetModuleFileNameW", "LdrLoadDll", "LdrGetProcedureAddress",
        "DisableThreadLibraryCalls", "SetDllDirectoryW",
    ),
    calls!(ComShell:
        "CoInitialize", "CoInitializeEx", "CoUninitialize",
        "CoCreateInstance", "CoTaskMemAlloc", "CoTaskMemFree",
        "SHGetFolderPathW", "SHGetKnownFolderPath", "SHFileOperationW",
        "ShellExecuteW", "SHCreateDirectoryExW", "SHChangeNotify",
    ),
    calls!(Clipboard:
        "OpenClipboard", "CloseClipboard", "GetClipboardData",
        "SetClipboardData", "EmptyClipboard", "GetKeyState",
        "GetAsyncKeyState", "GetCursorPos",
    ),
    calls!(Environment:
        "GetCommandLineW", "GetEnvironmentVariableW",
        "SetEnvironmentVariableW", "ExpandEnvironmentStringsW",
        "GetCurrentDirectoryW", "SetCurrentDirectoryW", "GetStartupInfoW",
        "GetSystemDirectoryW", "GetWindowsDirectoryW", "OutputDebugStringW",
        "SetErrorMode", "GetLastError", "SetLastError", "FormatMessageW",
        "MultiByteToWideChar", "WideCharToMultiByte",
    ),
    calls!(System:
        "DeviceIoControl", "NtShutdownSystem", "InitiateSystemShutdownExW",
        "SetSystemPowerState",
    ),
];

/// The 278-call vocabulary with name↔token lookup.
///
/// Tokens are stable: index into the canonical table order. Token values
/// are exactly what the model embeds (`0 ≤ token < 278`).
#[derive(Debug, Clone)]
pub struct ApiVocabulary {
    calls: Vec<ApiCall>,
    by_name: HashMap<&'static str, usize>,
}

impl ApiVocabulary {
    /// The canonical 278-call Windows vocabulary.
    pub fn windows() -> Self {
        let calls: Vec<ApiCall> = TABLE.iter().flat_map(|g| g.iter().copied()).collect();
        let mut by_name = HashMap::with_capacity(calls.len());
        for (i, c) in calls.iter().enumerate() {
            let prev = by_name.insert(c.name, i);
            debug_assert!(prev.is_none(), "duplicate API name {}", c.name);
        }
        Self { calls, by_name }
    }

    /// Vocabulary size `M`.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// `false`: the vocabulary is never empty.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// The call at `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary.
    pub fn call(&self, token: usize) -> ApiCall {
        self.calls[token]
    }

    /// The token of a call name, if present.
    pub fn token(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Like [`Self::token`] but panicking — for generator tables of known
    /// names.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the vocabulary.
    pub fn tok(&self, name: &str) -> usize {
        self.token(name)
            .unwrap_or_else(|| panic!("{name} not in vocabulary"))
    }

    /// Iterator over all calls in token order.
    pub fn iter(&self) -> impl Iterator<Item = &ApiCall> {
        self.calls.iter()
    }
}

impl Default for ApiVocabulary {
    fn default() -> Self {
        Self::windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_278_calls() {
        // M = 278 ⇒ the paper's 2,224 embedding parameters at O = 8.
        let v = ApiVocabulary::windows();
        assert_eq!(v.len(), 278);
        assert_eq!(v.len() * 8, 2_224);
    }

    #[test]
    fn no_duplicate_names() {
        let v = ApiVocabulary::windows();
        let names: HashSet<&str> = v.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), v.len());
    }

    #[test]
    fn token_lookup_roundtrip() {
        let v = ApiVocabulary::windows();
        for t in 0..v.len() {
            assert_eq!(v.token(v.call(t).name), Some(t));
        }
        assert_eq!(v.token("NotARealApi"), None);
    }

    #[test]
    fn crypto_category_contains_encrypt() {
        let v = ApiVocabulary::windows();
        let crypto: Vec<&str> = v
            .iter()
            .filter(|c| c.category == ApiCategory::Crypto)
            .map(|c| c.name)
            .collect();
        assert_eq!(crypto.len(), 18);
        assert!(crypto.contains(&"CryptEncrypt"));
    }

    #[test]
    #[should_panic(expected = "not in vocabulary")]
    fn tok_panics_on_unknown() {
        let _ = ApiVocabulary::windows().tok("Nope");
    }
}
